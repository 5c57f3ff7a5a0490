package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"regvirt/internal/jobs"
	"regvirt/internal/kernelgen"
	"regvirt/internal/workloads"
)

// The four workloads. Each is a closed loop of nproc callers that wait
// for every reply before sending their next request, as regvsim
// -remote and client.Submit/Wait callers do. The seed picks the
// inputs; the program only ever sees the generated jobs.
const (
	wCold  = "cold"
	wHits  = "hits"
	wMixed = "mixed"
	wGPU   = "gpu"
)

var workloadNames = []string{wCold, wHits, wMixed, wGPU}

// perSecond sizes each timed sequence: requests per second of
// --seconds, about half the rate measured on the baseline host, so the
// backstop (twice --seconds) leaves room for a host four times slower
// before it cuts a run. Every run sends its whole sequence, so every
// run of a workload does the same work.
var perSecond = map[string]int{wCold: 230, wHits: 6500, wMixed: 1500, wGPU: 67}

// gpuGrid is the CTA count of a gpu job: one CTA per SM of the 16-SM
// device, small enough that a 15-second run's sequence holds 1,000
// requests.
const gpuGrid = 16

// request is one distinct job, with its content address precomputed so
// checking a reply costs a string compare.
type request struct {
	job jobs.Job
	key string
}

// step is one submission of the timed sequence: which request, and
// whether it goes async (SubmitAsync + Wait) instead of sync.
type step struct {
	req   int32
	async bool
}

// inputs is everything one run sends.
type inputs struct {
	table   []request // the distinct jobs the timed sequence draws from
	seq     []step    // the timed sequence, sent in order
	prefill []request // sent during set-up; every reply is checked
	restart bool      // restart the cluster on its data dirs after prefill
	warmup  []request // sent during set-up, after prefill and restart
	tenants []string  // rotated over the timed sequence when set
}

// sizes are a run's set-up sizes; quickSizes shrinks them for the
// harness self-test.
type sizes struct {
	setups       int // set-ups per run; setup_s is their median
	warmup       int // warm-up requests
	mixedKeys    int // distinct mixed jobs
	mixedPrefill int // hottest mixed keys prefilled before the restart
}

var (
	fullSizes  = sizes{setups: 5, warmup: 128, mixedKeys: 8192, mixedPrefill: 256}
	quickSizes = sizes{setups: 1, warmup: 8, mixedKeys: 256, mixedPrefill: 32}
)

// Kernel seeds: a run's kernels come from its seed's range; warm-up
// kernels from one fixed range that no seed below 2^42 reaches, so
// every run's set-up does the same work and setup_s does not vary with
// the seed.
func kernelSeed(seed int64, i int) int64 { return seed<<20 | int64(i) }
func warmSeed(i int) int64               { return 1<<62 | int64(i) }

// screenCycles bounds the input screen's simulation; generated kernels
// finish in well under 10,000 cycles.
const screenCycles = 200_000

// kernelJob is j running the first generated kernel, from kseed on,
// that the simulator completes under j's backend. Compiler-mode
// release metadata livelocks the simulator on about one generated
// kernel in 60,000 (kseed 7<<20|2795 runs into the 50M-cycle watchdog
// with no CTA done; the other backends finish it), and an input must
// not make a request fail, so each compiler-mode candidate is first
// simulated as the job would be, under screenCycles, and replaced if it
// does not finish.
func kernelJob(kseed int64, j jobs.Job) jobs.Job {
	params := kernelgen.Params{Regs: 8 + int(uint64(kseed)%8), MaxItems: 10, MaxDepth: 2}
	for attempt := int64(0); ; attempt++ {
		j.Kernel = kernelgen.Generate(kseed+attempt<<48, params).String()
		if j.Mode != "compiler" || completes(j) {
			return j
		}
	}
}

// completes reports whether j's simulation finishes within
// screenCycles. The whole-device engine is deterministic at any
// worker count, so it screens with one.
func completes(j jobs.Job) bool {
	c, _, _, err := compileJob(j)
	if err != nil {
		return false
	}
	c.cfg.MaxCycles, c.cfg.GPUParallel = screenCycles, 1
	_, err = simulate(c)
	return err == nil
}

// coldModes is the backend rotation of cold and mixed jobs: the three
// register-saving backends on the shrunk 512-register file, the two
// classic ones on the full 1024.
var coldModes = []struct {
	mode     string
	physregs int
}{{"compiler", 512}, {"regcache", 512}, {"smemspill", 512}, {"baseline", 1024}, {"hwonly", 1024}}

// coldJob is a single-SM job of a generated kernel at the default
// 16x128 geometry.
func coldJob(kseed int64, i int) jobs.Job {
	m := coldModes[i%len(coldModes)]
	return kernelJob(kseed, jobs.Job{Mode: m.mode, PhysRegs: m.physregs})
}

// gpuJob is a whole-device job of a generated kernel, backends
// rotating on the full register file.
func gpuJob(kseed int64, i int) jobs.Job {
	return kernelJob(kseed, jobs.Job{
		Mode:        coldModes[i%len(coldModes)].mode,
		PhysRegs:    1024,
		WholeGPU:    true,
		GridCTAs:    gpuGrid,
		GPUParallel: runtime.NumCPU(),
	})
}

// hitsTable is the 16 Table 1 workloads under four configurations.
func hitsTable() []request {
	configs := []jobs.Job{{Mode: "compiler"}, {Mode: "compiler", PhysRegs: 512}, {Mode: "hwonly"}, {Mode: "regcache"}}
	var out []request
	for _, name := range workloads.Names() {
		for _, j := range configs {
			j.Workload = name
			out = append(out, request{job: j, key: j.Key()})
		}
	}
	return out
}

// genRequests builds n requests on every CPU; kernel generation is the
// costly part of making inputs.
func genRequests(n int, mk func(i int) jobs.Job) []request {
	out := make([]request, n)
	forEach(n, runtime.NumCPU(), func(i int) error {
		j := mk(i)
		out[i] = request{job: j, key: j.Key()}
		return nil
	})
	return out
}

func inOrder(n int) []step {
	seq := make([]step, n)
	for i := range seq {
		seq[i].req = int32(i)
	}
	return seq
}

// makeInputs generates one run's inputs with a timed sequence of n
// requests.
func makeInputs(name string, seed int64, n int, sz sizes) (*inputs, error) {
	if _, ok := perSecond[name]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	rng := rand.New(rand.NewSource(seed))
	cold := func(i int) jobs.Job { return coldJob(kernelSeed(seed, i), i) }
	warmCold := func(i int) jobs.Job { return coldJob(warmSeed(i), i) }
	in := &inputs{}
	switch name {
	case wCold:
		in.table = genRequests(n, cold)
		in.seq = inOrder(n)
		in.warmup = genRequests(sz.warmup, warmCold)
	case wHits:
		in.table = hitsTable()
		in.prefill = in.table
		in.seq = make([]step, n)
		for i := range in.seq {
			in.seq[i].req = int32(rng.Intn(len(in.table)))
		}
		warm := rand.New(rand.NewSource(warmSeed(0)))
		for i := 0; i < 4*sz.warmup; i++ {
			in.warmup = append(in.warmup, in.table[warm.Intn(len(in.table))])
		}
	case wMixed:
		// A synthetic mix, not a model of measured traffic: its
		// parameters are chosen so every cache tier serves a share
		// (keys twice the router cache; the hottest 256, three quarters
		// of the draws, on disk after the restart), not taken from a
		// trace.
		in.table = genRequests(sz.mixedKeys, cold)
		in.prefill = in.table[:sz.mixedPrefill]
		in.restart = true
		in.tenants = []string{"t0", "t1", "t2"}
		// Rank 0 is the hottest key, so the prefill is the hottest keys.
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(in.table)-1))
		in.seq = make([]step, n)
		for i := range in.seq {
			in.seq[i] = step{req: int32(zipf.Uint64()), async: rng.Intn(10) == 0}
		}
		in.warmup = genRequests(sz.warmup, warmCold)
	case wGPU:
		in.table = genRequests(n, func(i int) jobs.Job { return gpuJob(kernelSeed(seed, i), i) })
		in.seq = inOrder(n)
		in.warmup = genRequests(max(sz.warmup/16, 2), func(i int) jobs.Job { return gpuJob(warmSeed(i), i) })
	}
	return in, nil
}

// jobAt is the job of sequence position i, with its tenant set when the
// workload rotates tenants.
func (in *inputs) jobAt(i int) (request, bool) {
	s := in.seq[i]
	r := in.table[s.req]
	if len(in.tenants) > 0 {
		r.job.Tenant = in.tenants[i%len(in.tenants)]
	}
	return r, s.async
}
