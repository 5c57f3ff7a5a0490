package jobs

import (
	"bytes"
	"context"
	"testing"
)

// gpu_par is accepted and ignored: the device engine steps its SMs on
// one goroutine. Its wire contract stays as it was, so no request
// changes its status code or ID: the jobs layer must (a) exclude
// gpu_par from the content hash, (b) deduplicate submissions differing
// only in it, and (c) refuse the values it always refused.

func TestGPUParallelNotInKey(t *testing.T) {
	base := Job{Workload: "VectorAdd", WholeGPU: true}
	for _, par := range []int{1, 4, 16} {
		withPar := Job{Workload: "VectorAdd", WholeGPU: true, GPUParallel: par}
		if base.Key() != withPar.Key() {
			t.Errorf("gpu_par=%d changed the content key", par)
		}
	}
}

func TestGPUParallelValidate(t *testing.T) {
	bad := []Job{
		{Workload: "VectorAdd", WholeGPU: true, GPUParallel: -1},
		{Workload: "VectorAdd", GPUParallel: 4}, // above 1 without "gpu": true
	}
	for i, j := range bad {
		if err := j.Validate(); err == nil {
			t.Errorf("bad job %d accepted: %+v", i, j)
		}
	}
	good := []Job{
		{Workload: "VectorAdd", WholeGPU: true, GPUParallel: 8},
		{Workload: "VectorAdd", GPUParallel: 1}, // 1 is accepted anywhere
	}
	for i, j := range good {
		if err := j.Validate(); err != nil {
			t.Errorf("good job %d rejected: %v", i, err)
		}
	}
}

// TestGPUParallelDedup submits the same whole-GPU job under differing
// gpu_par settings and requires one underlying simulation, one shared
// ID, and byte-identical results.
func TestGPUParallelDedup(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	jobs := []Job{
		{Workload: "VectorAdd", WholeGPU: true},
		{Workload: "VectorAdd", WholeGPU: true, GPUParallel: 2},
		{Workload: "VectorAdd", WholeGPU: true, GPUParallel: 8},
	}
	var results []*Result
	for _, j := range jobs {
		res, err := p.Submit(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if results[i].ID != results[0].ID {
			t.Errorf("job %d got ID %s, want %s", i, results[i].ID, results[0].ID)
		}
		if !bytes.Equal(results[i].JSON(), results[0].JSON()) {
			t.Errorf("job %d result differs from job 0", i)
		}
	}
	// Sequential submissions land as cache hits; concurrent ones would
	// join the flight as dedups. Either way: exactly one simulation ran.
	if m := p.Metrics(); m.Executed != 1 || m.CacheHits+m.Deduped != uint64(len(jobs)-1) {
		t.Errorf("executed/hits/deduped = %d/%d/%d, want 1 execution and %d shared",
			m.Executed, m.CacheHits, m.Deduped, len(jobs)-1)
	}
}
