package compiler

import (
	"fmt"

	"regvirt/internal/arch"
	"regvirt/internal/cfg"
	"regvirt/internal/isa"
	"regvirt/internal/liveness"
)

// Options controls a compilation.
type Options struct {
	// TableBytes is the renaming-table budget (§6.2); the paper's
	// constrained configuration is arch.RenameTableBudgetBytes (1 KB).
	// Zero means unconstrained: every register is renameable.
	TableBytes int
	// ResidentWarps is the number of warps concurrently resident on one
	// SM for this kernel (warps/CTA x concurrent CTAs, Table 1). It sizes
	// the renaming table. Zero defaults to arch.MaxWarpsPerSM.
	ResidentWarps int
	// NoFlags compiles without any release metadata — the conventional
	// baseline, and the code hardware-only renaming [46] runs.
	NoFlags bool
}

// Kernel is a compiled kernel plus the metadata the hardware and the
// evaluation harness need.
type Kernel struct {
	// Prog is the executable program (with metadata instructions unless
	// Options.NoFlags was set).
	Prog *isa.Program
	// Exempt is N, the count of renaming-exempt registers. After
	// compilation the exempt registers occupy ids 0..N-1 and map directly
	// to physical registers; ids >= N go through the renaming table.
	Exempt int
	// ExemptRegs are the pre-renumbering ids of the exempt registers.
	ExemptRegs []isa.RegID
	// Stats holds the per-register lifetime estimates that drove
	// selection (original register numbering).
	Stats []RegStat
	// UnconstrainedTableBytes is the renaming table size needed to rename
	// every register of this kernel (Fig. 14, left).
	UnconstrainedTableBytes int
	// StaticInstrs is the instruction count before metadata insertion;
	// PirCount/PbrCount are the inserted metadata instructions (Fig. 13's
	// static code increase).
	StaticInstrs, PirCount, PbrCount int
	// ReleasePoints is the number of static release points.
	ReleasePoints int
	// AvgPbrRegs is the mean number of registers per pbr (§6.2 reports 2).
	AvgPbrRegs float64
}

// MetaInstrs returns the number of inserted metadata instructions.
func (k *Kernel) MetaInstrs() int { return k.PirCount + k.PbrCount }

// StaticIncrease returns the static code growth factor caused by
// metadata instructions (Fig. 13).
func (k *Kernel) StaticIncrease() float64 {
	if k.StaticInstrs == 0 {
		return 0
	}
	return float64(k.MetaInstrs()) / float64(k.StaticInstrs)
}

// Compile runs the full pipeline: CFG construction, SIMT liveness,
// release planning, renaming-candidate selection under the table budget,
// exempt renumbering, and metadata insertion. The input program is not
// modified.
func Compile(src *isa.Program, opts Options) (*Kernel, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	p := src.Clone()
	k := &Kernel{StaticInstrs: len(p.Instrs)}

	g, err := cfg.Build(p)
	if err != nil {
		return nil, err
	}
	li := liveness.Analyze(g)

	used := p.UsedRegs()
	var allRegs liveness.RegSet
	for _, r := range used {
		allRegs = allRegs.Add(r)
	}

	// Pass 1: plan with every register renameable, to estimate lifetimes.
	fullPlan := buildReleasePlan(li, allRegs)
	k.Stats = registerStats(li, fullPlan, used)

	warps := opts.ResidentWarps
	if warps <= 0 {
		warps = arch.MaxWarpsPerSM
	}
	k.UnconstrainedTableBytes = (arch.RenameEntryBits*warps*len(used) + 7) / 8

	capacity := len(used)
	if opts.TableBytes > 0 {
		capacity = opts.TableBytes * 8 / (arch.RenameEntryBits * warps)
	}
	renameable, exempt := selectRenameable(k.Stats, capacity)
	k.ExemptRegs = exempt
	k.Exempt = len(exempt)

	if opts.NoFlags {
		// Baseline: keep the original code; every register behaves as
		// exempt (no releases ever happen).
		k.Prog = p
		return k, nil
	}

	// Renumber so exempt registers occupy the lowest ids, balancing
	// expected occupancy across banks.
	perm, err := exemptPermutation(used, exempt, k.Stats)
	if err != nil {
		return nil, err
	}
	renumber(p, &perm)
	if err := p.Rebuild(); err != nil {
		return nil, err
	}
	var renameableNew liveness.RegSet
	for _, r := range used {
		if renameable.Has(r) {
			renameableNew = renameableNew.Add(perm[r])
		}
	}

	// Pass 2: re-analyze the renumbered program and emit flags only for
	// the renameable registers.
	g2, err := cfg.Build(p)
	if err != nil {
		return nil, err
	}
	li2 := liveness.Analyze(g2)
	plan := buildReleasePlan(li2, renameableNew)
	k.ReleasePoints = plan.points

	q, err := insertMeta(g2, plan)
	if err != nil {
		return nil, err
	}
	totalPbrRegs := 0
	for _, in := range q.Instrs {
		switch in.Op {
		case isa.OpPir:
			k.PirCount++
		case isa.OpPbr:
			k.PbrCount++
			totalPbrRegs += len(in.PbrRegs)
		}
	}
	if k.PbrCount > 0 {
		k.AvgPbrRegs = float64(totalPbrRegs) / float64(k.PbrCount)
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: output validation: %w", err)
	}
	k.Prog = q
	return k, nil
}
