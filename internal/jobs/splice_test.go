//go:build !race

package jobs

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"regvirt/internal/workloads"
)

// TestResultWithTenantMatchesMarshal pins the router's byte path: a
// tenant spliced into a tenantless result encoding, or stripped from a
// stamped one, is byte for byte MarshalIndent of the result struct with
// Tenant set so, and WriteDoneStatus of the bytes is WriteJSON of the
// JobStatus holding the struct. Every Table 1 workload on all five
// backends, plus a whole-GPU and a profiled result. It simulates 82
// jobs, too slow under the race detector, hence the build tag.
func TestResultWithTenantMatchesMarshal(t *testing.T) {
	var all []Job
	for _, name := range workloads.Names() {
		for _, m := range pinnedModes {
			all = append(all, Job{Workload: name, Mode: m.mode, PhysRegs: m.physregs})
		}
	}
	all = append(all,
		Job{Workload: "Gaussian", PhysRegs: 512, WholeGPU: true},
		Job{Workload: "Reduction", PhysRegs: 512, Profile: true})
	for _, job := range all {
		res, err := Execute(context.Background(), job)
		if err != nil {
			t.Fatalf("%+v: %v", job, err)
		}
		for _, id := range []string{res.ID, ""} {
			plain := *res
			plain.ID = id
			tenantless := plain.JSON()
			for _, tenant := range []string{"t0", "Tenant.with_every-char.0123456789", `needs "escaping" <&>`} {
				stamped := plain
				stamped.Tenant = tenant
				want := stamped.JSON()
				if got := ResultWithTenant(tenantless, tenant); !bytes.Equal(got, want) {
					t.Fatalf("%s (id %q): splicing in %q gave\n%s\nwant\n%s", job.Key(), id, tenant, got, want)
				}
				if got := ResultWithTenant(want, ""); !bytes.Equal(got, tenantless) {
					t.Fatalf("%s (id %q): stripping %q gave\n%s\nwant\n%s", job.Key(), id, tenant, got, tenantless)
				}
				if got := ResultWithTenant(want, "t1"); !bytes.Equal(got, ResultWithTenant(tenantless, "t1")) {
					t.Fatalf("%s (id %q): restamping %q over %q differs from stamping a tenantless encoding", job.Key(), id, "t1", tenant)
				}
				raw, decoded := httptest.NewRecorder(), httptest.NewRecorder()
				WriteDoneStatus(raw, 200, job.Key(), want)
				WriteJSON(decoded, 200, JobStatus{ID: job.Key(), State: "done", Result: &stamped})
				if !bytes.Equal(raw.Body.Bytes(), decoded.Body.Bytes()) {
					t.Fatalf("%s: WriteDoneStatus gave\n%s\nwant\n%s", job.Key(), raw.Body.Bytes(), decoded.Body.Bytes())
				}
			}
			if got := ResultWithTenant(tenantless, ""); !bytes.Equal(got, tenantless) {
				t.Fatalf("%s: stripping a tenantless encoding changed it", job.Key())
			}
		}
	}
}
