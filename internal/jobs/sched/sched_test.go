package sched

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// drain pops every dispatchable task with a single consumer (releasing
// each immediately) and returns the dispatch order by tenant.
func drain(t *testing.T, s *Scheduler) []string {
	t.Helper()
	var order []string
	for s.Queued() > 0 {
		task, ok := s.Next()
		if !ok {
			t.Fatal("Next returned closed with tasks still queued")
		}
		order = append(order, task.Tenant)
		s.Release(task)
	}
	return order
}

func enq(t *testing.T, s *Scheduler, tenant string, prio int) *Task {
	t.Helper()
	task := &Task{Tenant: tenant, Priority: prio, Do: func() {}}
	if err := s.Enqueue(task); err != nil {
		t.Fatalf("Enqueue(%s, %d): %v", tenant, prio, err)
	}
	return task
}

// TestStrideProportions: with weights 2:1 and deep backlogs on both
// queues, dispatch interleaves 2:1 — the fairness the weights promise —
// and the exact order is deterministic (ties break on tenant name).
func TestStrideProportions(t *testing.T) {
	s := New(Config{Tenants: map[string]TenantConfig{
		"a": {Weight: 2},
		"b": {Weight: 1},
	}})
	for i := 0; i < 12; i++ {
		enq(t, s, "a", 0)
	}
	for i := 0; i < 6; i++ {
		enq(t, s, "b", 0)
	}
	order := drain(t, s)
	want := []string{"a", "b", "a", "a", "b", "a", "a", "b", "a"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("dispatch[%d] = %s, want %s (full order %v)", i, order[i], w, order)
		}
	}
	// Any 3-dispatch window while both queues are backlogged holds
	// exactly two a's.
	for i := 0; i+3 <= 12; i += 3 {
		a := 0
		for _, tn := range order[i : i+3] {
			if tn == "a" {
				a++
			}
		}
		if a != 2 {
			t.Fatalf("window %d: %d a-dispatches, want 2 (%v)", i, a, order)
		}
	}
}

// TestPriorityWithinTenant: higher priority jumps the tenant's queue;
// equal priorities keep arrival order.
func TestPriorityWithinTenant(t *testing.T) {
	s := New(Config{})
	first := enq(t, s, "default", 0)
	second := enq(t, s, "default", 0)
	urgent := enq(t, s, "default", 5)
	got := []*Task{}
	for i := 0; i < 3; i++ {
		task, _ := s.Next()
		got = append(got, task)
		s.Release(task)
	}
	if got[0] != urgent || got[1] != first || got[2] != second {
		t.Fatalf("dispatch order wrong: got %v want [urgent first second]", got)
	}
}

// TestIdleTenantCannotBankCredit: a tenant idle through many of
// another's dispatches re-joins at the current virtual time — it does
// not get a catch-up burst for the time it wasn't queuing.
func TestIdleTenantCannotBankCredit(t *testing.T) {
	s := New(Config{Tenants: map[string]TenantConfig{
		"busy": {Weight: 1}, "idle": {Weight: 1},
	}})
	for i := 0; i < 8; i++ {
		enq(t, s, "busy", 0)
	}
	for i := 0; i < 4; i++ { // burn half the busy backlog while idle is away
		task, _ := s.Next()
		if task.Tenant != "busy" {
			t.Fatalf("dispatch %d: %s, want busy", i, task.Tenant)
		}
		s.Release(task)
	}
	for i := 0; i < 4; i++ {
		enq(t, s, "idle", 0)
	}
	// From here the two tenants alternate; idle must not win 4 in a row.
	order := drain(t, s)
	for i := 0; i+2 <= len(order); i += 2 {
		if order[i] == order[i+1] {
			t.Fatalf("window %d not interleaved: %v", i, order)
		}
	}
}

// TestQuotaMaxQueued: the tenant's MaxQueued rejects with a typed
// *QuotaError carrying the observed depth; other tenants are unaffected.
func TestQuotaMaxQueued(t *testing.T) {
	s := New(Config{Tenants: map[string]TenantConfig{"q": {Weight: 1, MaxQueued: 2}}})
	enq(t, s, "q", 0)
	enq(t, s, "q", 0)
	err := s.Enqueue(&Task{Tenant: "q", Do: func() {}})
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Tenant != "q" || qe.Queued != 2 || qe.Limit != 2 {
		t.Fatalf("third enqueue: %v, want QuotaError{q,2,2}", err)
	}
	enq(t, s, "other", 0) // unlimited default config
	// Exempt re-enqueues (preempted jobs) bypass the quota.
	if err := s.Enqueue(&Task{Tenant: "q", Exempt: true, Do: func() {}}); err != nil {
		t.Fatalf("exempt enqueue: %v", err)
	}
}

// TestAdmissionStrictAndPriority: strict mode 403s unknown tenants (but
// always admits "default"), and MaxPriority caps what a tenant may ask.
func TestAdmissionStrictAndPriority(t *testing.T) {
	s := New(Config{
		Strict:  true,
		Tenants: map[string]TenantConfig{"gold": {Weight: 4, MaxPriority: 10}},
	})
	var ae *AdmissionError
	if row, err := s.Admit("stranger", 0); !errors.As(err, &ae) || row != nil {
		t.Fatalf("strict unknown tenant: %v, row %p; want AdmissionError and no row", err, row)
	}
	if _, err := s.Admit(DefaultTenant, 0); err != nil {
		t.Fatalf("default tenant must always admit: %v", err)
	}
	over, err := s.Admit("gold", 11)
	if !errors.As(err, &ae) {
		t.Fatalf("over-priority admit: %v, want AdmissionError", err)
	}
	row, err := s.Admit("gold", 10)
	if err != nil {
		t.Fatalf("at-cap priority: %v", err)
	}
	// A priority refusal hands back the tenant's row, so it can be
	// counted there; the row's counters are what Snapshot reports.
	if over != row {
		t.Fatal("over-priority refusal returned another row than gold's")
	}
	row.QuotaRejected.Add(1)
	for _, st := range s.Snapshot() {
		if st.Tenant == "gold" && st.QuotaRejected != 1 {
			t.Errorf("gold quota_rejected = %d, want 1", st.QuotaRejected)
		}
	}
	if len(s.Snapshot()) != 2 {
		t.Errorf("snapshot = %+v, want default and gold only", s.Snapshot())
	}
}

// TestMaxRunningCapsDispatch: a tenant at MaxRunning keeps its backlog
// queued while other tenants dispatch past it.
func TestMaxRunningCapsDispatch(t *testing.T) {
	s := New(Config{Tenants: map[string]TenantConfig{"capped": {Weight: 8, MaxRunning: 1}}})
	enq(t, s, "capped", 0)
	enq(t, s, "capped", 0)
	enq(t, s, "free", 0)

	first, _ := s.Next() // capped's first task occupies its only slot
	if first.Tenant != "capped" {
		t.Fatalf("first dispatch %s, want capped (weight 8)", first.Tenant)
	}
	second, _ := s.Next()
	if second.Tenant != "free" {
		t.Fatalf("second dispatch %s, want free (capped at MaxRunning)", second.Tenant)
	}
	s.Release(first) // frees the slot: capped's second task dispatches
	third, _ := s.Next()
	if third.Tenant != "capped" {
		t.Fatalf("post-release dispatch %s, want capped", third.Tenant)
	}
	s.Release(second)
	s.Release(third)
}

// TestGlobalCapacity: the scheduler-wide bound fails with ErrSaturated
// (backpressure, 429) rather than a tenant quota (policy, 403), exempt
// tasks pass it, and the Queued and Running totals follow Enqueue, Next
// and Release.
func TestGlobalCapacity(t *testing.T) {
	s := New(Config{Capacity: 2})
	enq(t, s, "a", 0)
	if s.Saturated() {
		t.Fatal("saturated at 1 of 2")
	}
	enq(t, s, "b", 0)
	if !s.Saturated() {
		t.Fatal("not saturated at 2 of 2")
	}
	if err := s.Enqueue(&Task{Tenant: "c", Do: func() {}}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("over capacity: %v, want ErrSaturated", err)
	}
	if err := s.Enqueue(&Task{Tenant: "c", Exempt: true, Do: func() {}}); err != nil {
		t.Fatalf("exempt enqueue past capacity: %v", err)
	}
	a, _ := s.Next()
	b, _ := s.Next()
	if s.Queued() != 1 || s.Running() != 2 || s.Saturated() {
		t.Fatalf("after two dispatches: queued %d, running %d, saturated %v; want 1, 2, false",
			s.Queued(), s.Running(), s.Saturated())
	}
	s.Release(a)
	s.Release(b)
	if s.Running() != 0 {
		t.Fatalf("running %d after release, want 0", s.Running())
	}
}

// TestCloseDrains: Close stops admission but queued tasks still
// dispatch; Next reports closed only once drained.
func TestCloseDrains(t *testing.T) {
	s := New(Config{})
	enq(t, s, "a", 0)
	enq(t, s, "a", 0)
	s.Close()
	if err := s.Enqueue(&Task{Tenant: "a", Do: func() {}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close: %v, want ErrClosed", err)
	}
	for i := 0; i < 2; i++ {
		task, ok := s.Next()
		if !ok {
			t.Fatalf("Next closed with %d tasks still queued", 2-i)
		}
		s.Release(task)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("Next returned a task from a drained closed scheduler")
	}
}

// TestShare: the share denominator counts only active tenants, so a
// quiet tenant's Retry-After hint reflects its own queue, not the
// flooding tenant's backlog.
func TestShare(t *testing.T) {
	s := New(Config{Tenants: map[string]TenantConfig{
		"flood": {Weight: 1}, "quiet": {Weight: 1}, "sleeper": {Weight: 6},
	}})
	for i := 0; i < 10; i++ {
		enq(t, s, "flood", 0)
	}
	// sleeper is inactive: quiet's share is 1/(1+1), not 1/8.
	queued, share := s.Share("quiet")
	if queued != 0 || share != 0.5 {
		t.Fatalf("Share(quiet) = %d, %v; want 0, 0.5", queued, share)
	}
	queued, _ = s.Share("flood")
	if queued != 10 {
		t.Fatalf("Share(flood) queued = %d, want 10", queued)
	}
}

// TestBlockingNextWakesOnEnqueue: a consumer blocked in Next is woken
// by a later Enqueue (no lost wakeups).
func TestBlockingNextWakesOnEnqueue(t *testing.T) {
	s := New(Config{})
	var wg sync.WaitGroup
	wg.Add(1)
	got := make(chan *Task, 1)
	go func() {
		defer wg.Done()
		task, ok := s.Next()
		if ok {
			got <- task
			s.Release(task)
		}
	}()
	enq(t, s, "late", 3)
	task := <-got
	if task.Tenant != "late" {
		t.Fatalf("woken consumer got tenant %s", task.Tenant)
	}
	s.Close()
	wg.Wait()
}

// TestSnapshotShape: configured tenants appear before traffic, stats
// sorted by name, gauges live.
func TestSnapshotShape(t *testing.T) {
	s := New(Config{Tenants: map[string]TenantConfig{
		"b": {Weight: 2, MaxQueued: 9}, "a": {Weight: 1},
	}})
	enq(t, s, "b", 0)
	stats := s.Snapshot()
	if len(stats) != 3 { // a, b, default
		t.Fatalf("snapshot has %d queues, want 3: %+v", len(stats), stats)
	}
	if stats[0].Tenant != "a" || stats[1].Tenant != "b" || stats[2].Tenant != DefaultTenant {
		t.Fatalf("snapshot not sorted: %+v", stats)
	}
	if stats[1].Queued != 1 || stats[1].Weight != 2 || stats[1].MaxQueued != 9 {
		t.Fatalf("b stats wrong: %+v", stats[1])
	}
	task, _ := s.Next()
	if st := s.Snapshot(); st[1].Running != 1 || st[1].Dispatched != 1 {
		t.Fatalf("running gauge wrong after dispatch: %+v", st[1])
	}
	s.Release(task)
}

// TestTenantTableBounded: non-strict mode cannot be grown without
// bound by hostile tenant names. A new tenant is refused only when
// every row has work queued or running, or is the default tenant.
func TestTenantTableBounded(t *testing.T) {
	s := New(Config{})
	if MaxTenants != 1024 || s.maxTenants != MaxTenants {
		t.Fatalf("tenant table bound %d (MaxTenants %d), want 1024", s.maxTenants, MaxTenants)
	}
	s.maxTenants = 3 // default queue occupies one slot
	enq(t, s, "t1", 0)
	enq(t, s, "t2", 0)
	var ae *AdmissionError
	if _, err := s.Admit("t3", 0); !errors.As(err, &ae) {
		t.Fatalf("over MaxTenants: %v, want AdmissionError", err)
	}
	// Known tenants still admit.
	if _, err := s.Admit("t1", 0); err != nil {
		t.Fatal(err)
	}
}

// TestFullTableEvictsIdleRow: 1,023 one-off tenant names fill the
// table, and a new tenant still gets in by taking an idle row's place.
// The table never passes MaxTenants, and a row with work queued or
// running, a configured row and the default row are never evicted.
func TestFullTableEvictsIdleRow(t *testing.T) {
	plain := New(Config{})
	for i := 1; i < MaxTenants; i++ {
		if _, err := plain.Admit(fmt.Sprintf("oneoff-%04d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := plain.Admit("alice", 0); err != nil {
		t.Fatalf("Admit(alice) after 1,023 one-off names: %v", err)
	}

	s := New(Config{Tenants: map[string]TenantConfig{"gold": {Weight: 4}}})
	enq(t, s, "running", 0)
	task, _ := s.Next()
	defer s.Release(task)
	enq(t, s, "queued", 0)
	for i := len(s.tenants); i < MaxTenants; i++ {
		if _, err := s.Admit(fmt.Sprintf("oneoff-%04d", i), 0); err != nil {
			t.Fatalf("filling the table, tenant %d: %v", i, err)
		}
	}
	for i := 0; i < 2*MaxTenants; i++ {
		name := fmt.Sprintf("alice-%04d", i)
		if _, err := s.Admit(name, 0); err != nil {
			t.Fatalf("Admit(%s) with a full table of idle rows: %v", name, err)
		}
		if n := len(s.tenants); n > MaxTenants {
			t.Fatalf("table holds %d rows, bound %d", n, MaxTenants)
		}
	}
	for _, name := range []string{"gold", DefaultTenant, "queued", "running"} {
		if _, ok := s.tenants[name]; !ok {
			t.Errorf("row %q was evicted", name)
		}
	}
	if s.tenants["queued"].tasks.Len() != 1 || s.tenants["running"].running != 1 {
		t.Errorf("busy rows lost their work: queued %d, running %d", s.tenants["queued"].tasks.Len(), s.tenants["running"].running)
	}
}

// TestFullTableOfBusyRowsRefuses: when no row can be evicted, a new
// tenant is refused as before, and an idle row frees a place again.
func TestFullTableOfBusyRowsRefuses(t *testing.T) {
	s := New(Config{})
	s.maxTenants = 3
	enq(t, s, "a", 0)
	enq(t, s, "b", 0)
	var ae *AdmissionError
	if _, err := s.Admit("c", 0); !errors.As(err, &ae) {
		t.Fatalf("table of busy rows: %v, want AdmissionError", err)
	}
	task, _ := s.Next()
	s.Release(task) // its tenant is idle again
	if _, err := s.Admit("c", 0); err != nil {
		t.Fatalf("after a row went idle: %v", err)
	}
	if _, ok := s.tenants[task.Tenant]; ok {
		t.Errorf("idle row %q kept; want it evicted for c", task.Tenant)
	}
}

// BenchmarkDispatch times one Enqueue + Next + Release with the tenant
// table at 3 rows and at MaxTenants rows, all but one idle. Dispatch
// walks only the tenants with work, so the two cost the same.
func BenchmarkDispatch(b *testing.B) {
	for _, rows := range []int{3, MaxTenants} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			s := New(Config{})
			for i := len(s.tenants); i < rows; i++ {
				if _, err := s.Admit(fmt.Sprintf("idle-%04d", i), 0); err != nil {
					b.Fatal(err)
				}
			}
			task := &Task{Tenant: "idle-0001", Do: func() {}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Enqueue(task); err != nil {
					b.Fatal(err)
				}
				t, _ := s.Next()
				s.Release(t)
			}
		})
	}
}
