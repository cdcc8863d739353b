package regalloc

import (
	"fastliveness/internal/cfg"
	"fastliveness/internal/dom"
	"fastliveness/internal/ir"
)

// Pressure is the register-pressure profile of a function: how many values
// are simultaneously live at the widest point of each block. It is the
// quantity that decides whether a register budget k needs spilling at all,
// and — because strict-SSA interference graphs are chordal — Max is
// exactly the number of registers a spill-free allocation needs (the
// VerifyAllocation bound).
type Pressure struct {
	// PerBlock is the maximum number of simultaneously-live values at any
	// point of each block, indexed like ir.Func.Blocks. Definitions count
	// at their own program point even when dead (they occupy a register
	// there), and a block's φs count simultaneously at its entry.
	PerBlock []int
	// Max is the function-wide maximum and MaxBlock a block attaining it.
	Max      int
	MaxBlock *ir.Block
	// Queries counts the IsLiveOut queries issued.
	Queries int
}

// MeasurePressure computes the pressure profile through the oracle alone:
// IsLiveOut queries over each value's dominance subtree build each block's
// live-at-end set, and a backward in-block walk refines the end sets to
// the per-point maximum. In strict SSA a value's live range is a subtree
// of the dominator tree rooted at its definition — live-out at b implies
// live-out at idom(b) — so the preorder sweep of the definition's subtree
// skips the whole subtree of every block the value is dead at the end of.
func MeasurePressure(f *ir.Func, oracle Oracle) Pressure {
	g, index := cfg.FromFunc(f)
	d := cfg.NewDFS(g)
	tree := dom.Iterative(g, d)

	p := Pressure{PerBlock: make([]int, len(f.Blocks))}
	atEnd := make([][]*ir.Value, len(f.Blocks))
	f.Values(func(v *ir.Value) {
		if !v.Op.HasResult() {
			return
		}
		dn := index[v.Block.ID]
		if tree.Num[dn] < 0 {
			return // unreachable definition: live nowhere
		}
		for num := tree.Num[dn]; num <= tree.MaxNum[dn]; num++ {
			node := tree.Order[num]
			p.Queries++
			if oracle.IsLiveOut(v, f.Blocks[node]) {
				atEnd[node] = append(atEnd[node], v)
			} else {
				num = tree.MaxNum[node] // dead below node too
			}
		}
	})

	// live is a stamped membership set over value IDs, reset per block.
	stamp := make([]int, f.NumValues())
	epoch := 0
	count := 0
	add := func(v *ir.Value) {
		if stamp[v.ID] != epoch {
			stamp[v.ID] = epoch
			count++
		}
	}
	has := func(v *ir.Value) bool { return stamp[v.ID] == epoch }
	remove := func(v *ir.Value) {
		if stamp[v.ID] == epoch {
			stamp[v.ID] = 0
			count--
		}
	}

	for bi, b := range f.Blocks {
		epoch = bi + 1
		count = 0
		for _, v := range atEnd[bi] {
			add(v)
		}
		// Values consumed at the block's very end: the control operand and
		// φ operands of successors (paper Definition 1 places those uses
		// here, one instant before live-out).
		if c := b.Control; c != nil {
			add(c)
		}
		for _, e := range b.Succs {
			for _, phi := range e.B.Phis() {
				add(phi.Args[e.I])
			}
		}
		maxP := count
		phis := b.Phis()
		for i := len(b.Values) - 1; i >= len(phis); i-- {
			v := b.Values[i]
			if v.Op.HasResult() {
				if !has(v) && count+1 > maxP {
					maxP = count + 1 // dead definition: occupies at its point
				}
				remove(v)
			}
			for _, arg := range v.Args {
				add(arg)
			}
			if count > maxP {
				maxP = count
			}
		}
		// Block entry: every φ defines simultaneously, dead or not, on top
		// of the values live through the φ group.
		entry := count
		for _, phi := range phis {
			if !has(phi) {
				entry++
			}
		}
		if entry > maxP {
			maxP = entry
		}
		p.PerBlock[bi] = maxP
		if maxP > p.Max || p.MaxBlock == nil {
			p.Max = maxP
			p.MaxBlock = b
		}
	}
	return p
}
