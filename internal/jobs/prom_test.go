package jobs

import (
	"bytes"
	"hash/fnv"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"regvirt/internal/obs"
)

// goldenSnapshot is a MetricsSnapshot whose every numeric field holds a
// value derived from the field's name and salt, so each field renders
// its own number and deleting one field leaves every other value as it
// was. seen catches two fields that would render the same number.
func goldenSnapshot(t *testing.T, salt string, seen map[uint64]string) MetricsSnapshot {
	t.Helper()
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+"."+v.Type().Field(i).Name
			h := fnv.New32a()
			h.Write([]byte(name))
			n := uint64(h.Sum32() % 1000000)
			switch f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(n))
			case reflect.Uint64:
				f.SetUint(n)
			case reflect.Float64:
				f.SetFloat(float64(n) / 8)
			case reflect.Struct:
				fill(f, name)
				continue
			default:
				continue
			}
			if prev, dup := seen[n]; dup {
				t.Fatalf("%s and %s both render %d; change the salt", prev, name, n)
			}
			seen[n] = name
		}
	}
	var m MetricsSnapshot
	fill(reflect.ValueOf(&m).Elem(), salt)
	m.Tenants = map[string]TenantSnapshot{}
	for _, tenant := range []string{"team-a", overflowTenant} {
		ts := TenantSnapshot{Tenant: tenant}
		fill(reflect.ValueOf(&ts).Elem(), salt+"/"+tenant)
		ts.Tenant = tenant
		m.Tenants[tenant] = ts
	}
	hist := func(vs ...float64) obs.HistogramSnapshot {
		h := obs.NewHistogram(obs.DefLatencyBuckets...)
		for _, v := range vs {
			h.Observe(v)
		}
		return h.Snapshot()
	}
	m.SpanDurations = map[string]obs.HistogramSnapshot{"sim.run": hist(0.002, 0.04)}
	return m
}

// TestPromMetricsGolden pins the bytes /metrics serves in both formats:
// the JSON body of one snapshot, then the Prometheus exposition of two
// shard-labelled snapshots as the cluster router aggregates them.
// Regenerate with -args -update only when the metric set is meant to
// change.
func TestPromMetricsGolden(t *testing.T) {
	seen := map[uint64]string{}
	a, b := goldenSnapshot(t, "a", seen), goldenSnapshot(t, "b", seen)
	rec := httptest.NewRecorder()
	WriteJSON(rec, 200, a)
	var w obs.PromWriter
	WriteProm(&w,
		PromShard{Labels: []obs.Label{{Name: "shard", Value: "a"}}, M: a},
		PromShard{Labels: []obs.Label{{Name: "shard", Value: "b"}}, M: b})
	if err := obs.LintProm(w.Bytes()); err != nil {
		t.Fatalf("exposition fails lint: %v", err)
	}
	got := append(rec.Body.Bytes(), w.Bytes()...)

	path := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -args -update to record)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("metrics bytes differ from %s at line %d:\n got %q\nwant %q", path, i+1, g, w)
		}
	}
	t.Fatalf("metrics bytes differ from %s", path)
}
