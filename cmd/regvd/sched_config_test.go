package main

import (
	"reflect"
	"strings"
	"testing"

	"regvirt/internal/jobs/sched"
)

func TestParseTenantsSpec(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		want    map[string]sched.TenantConfig
		wantDef sched.TenantConfig
		wantErr string
	}{
		{name: "empty", spec: "", want: map[string]sched.TenantConfig{}},
		{name: "whitespace", spec: "   ", want: map[string]sched.TenantConfig{}},
		{
			name: "weights only",
			spec: "gold:4,silver:2",
			want: map[string]sched.TenantConfig{
				"gold":   {Weight: 4},
				"silver": {Weight: 2},
			},
		},
		{
			name: "full grammar",
			spec: "gold:4:64:8:10, bronze:1:8:1:0",
			want: map[string]sched.TenantConfig{
				"gold":   {Weight: 4, MaxQueued: 64, MaxRunning: 8, MaxPriority: 10},
				"bronze": {Weight: 1, MaxQueued: 8, MaxRunning: 1},
			},
		},
		{
			name:    "star names the default",
			spec:    "gold:4,*:1:16",
			want:    map[string]sched.TenantConfig{"gold": {Weight: 4}},
			wantDef: sched.TenantConfig{Weight: 1, MaxQueued: 16},
		},
		{name: "trailing comma ok", spec: "a:1,", want: map[string]sched.TenantConfig{"a": {Weight: 1}}},
		{name: "missing weight", spec: "gold", wantErr: "want name:weight"},
		{name: "too many fields", spec: "a:1:2:3:4:5", wantErr: "want name:weight"},
		{name: "empty name", spec: ":3", wantErr: "empty tenant name"},
		{name: "non-numeric", spec: "a:fast", wantErr: "field 2"},
		{name: "negative cap", spec: "a:1:-2", wantErr: "negative value"},
		{name: "zero weight", spec: "a:0", wantErr: "weight must be >= 1"},
		{name: "duplicate tenant", spec: "a:1,a:2", wantErr: "configured twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, def, err := parseTenantsSpec(tc.spec)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("tenants = %+v, want %+v", got, tc.want)
			}
			if def != tc.wantDef {
				t.Errorf("default = %+v, want %+v", def, tc.wantDef)
			}
		})
	}
}

func TestSchedConfigFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-tenants", "gold:4:32,*:1", "-strict-tenants"})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := cfg.schedConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Strict {
		t.Error("-strict-tenants not carried into the scheduler config")
	}
	if sc.Tenants["gold"].Weight != 4 || sc.Tenants["gold"].MaxQueued != 32 {
		t.Errorf("gold = %+v", sc.Tenants["gold"])
	}
	if sc.Default.Weight != 1 {
		t.Errorf("default = %+v", sc.Default)
	}

	if cfg, err = parseFlags([]string{"-tenants", "a:0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.schedConfig(); err == nil || !strings.Contains(err.Error(), "-tenants") {
		t.Errorf("bad tenants: err = %v, want -tenants complaint", err)
	}
}
