package planverify

import (
	"fmt"
	"sort"

	"ppm/internal/codes"
	"ppm/internal/kernel"
	"ppm/internal/matrix"
	"ppm/internal/repair"
)

const objRepairPlan = "repair-plan"

// reconstructMatrix rebuilds the coefficient matrix a compiled matrix
// was lowered from, reading each term's column and multiplier back out
// of the fused row kernels the tiled driver runs. Every verification of
// a repair step therefore checks the lowering the executor actually
// runs, not the matrix the planner thought it compiled.
func reconstructMatrix(cm *kernel.CompiledMatrix, fieldOf codes.Code) *matrix.Matrix {
	m := matrix.New(fieldOf.Field(), cm.Rows(), cm.Cols())
	for i := 0; i < cm.Rows(); i++ {
		for _, t := range cm.RowTerms(i) {
			m.Set(i, t.Col, t.Mult.Coefficient())
		}
	}
	return m
}

// VerifyRepairPlan proves a minimal-read repair plan: every step's
// recovery expression is valid on every codeword (through the same
// row-space membership argument as decode plans), steps only consume
// survivors or outputs of strictly earlier steps, the plan recovers
// every wanted sector, ReadCols is exactly the survivors the steps
// read, and the cost counters recompute from the compiled matrices.
// When a step's compiled matrix carries an XOR program (the forced or
// no-GFNI backend), the program itself is re-proven against the
// reconstructed matrix, so the whole lowering chain is covered.
func VerifyRepairPlan(c codes.Code, p *repair.Plan) []Finding {
	var fs []Finding
	report := func(pass string, op int, format string, args ...interface{}) {
		fs = append(fs, Finding{Object: objRepairPlan, Pass: pass, OpIndex: op,
			Message: fmt.Sprintf(format, args...)})
	}
	f := c.Field()
	h := c.ParityCheck()
	total := codes.TotalSectors(c)
	faulty := p.Scenario.FaultySet()

	recovered := make(map[int][]uint32) // sector -> expression over original survivors
	readSet := make(map[int]bool)
	var ops int64
	for si := range p.Steps {
		step := &p.Steps[si]

		// Reconstruct the effective matrix of the step's sequence and
		// cross-check the compiled pieces and the Ops counter.
		var eff *matrix.Matrix
		switch step.Seq {
		case kernel.MatrixFirst:
			if step.G == nil {
				report("structure", si, "MatrixFirst step carries no compiled G")
				continue
			}
			eff = reconstructMatrix(step.G, c)
			if step.Ops != int64(step.G.NNZ()) {
				report("stats", si, "step predicts %d mult_XORs, its compiled G has %d nonzeros", step.Ops, step.G.NNZ())
			}
			if prog := step.G.XORProgram(); prog != nil {
				fs = append(fs, prefixOp(VerifyProgram(f, eff, prog), si)...)
			}
		case kernel.Normal:
			if step.Finv == nil || step.S == nil {
				report("structure", si, "Normal step is missing a compiled Finv or S")
				continue
			}
			finv := reconstructMatrix(step.Finv, c)
			s := reconstructMatrix(step.S, c)
			if finv.Cols() != s.Rows() {
				report("structure", si, "Normal step chains %dx%d Finv after %dx%d S", finv.Rows(), finv.Cols(), s.Rows(), s.Cols())
				continue
			}
			eff = finv.Mul(s)
			if step.Ops != int64(step.Finv.NNZ()+step.S.NNZ()) {
				report("stats", si, "step predicts %d mult_XORs, its compiled pair has %d",
					step.Ops, step.Finv.NNZ()+step.S.NNZ())
			}
			if prog := step.Finv.XORProgram(); prog != nil {
				fs = append(fs, prefixOp(VerifyProgram(f, finv, prog), si)...)
			}
			if prog := step.S.XORProgram(); prog != nil {
				fs = append(fs, prefixOp(VerifyProgram(f, s, prog), si)...)
			}
		default:
			report("structure", si, "step has unknown sequence %v", step.Seq)
			continue
		}
		if eff.Rows() != len(step.Out) || eff.Cols() != len(step.In) {
			report("structure", si, "step matrix is %dx%d for %d outputs and %d inputs",
				eff.Rows(), eff.Cols(), len(step.Out), len(step.In))
			continue
		}

		// Resolve inputs: original survivors are themselves; faulty
		// sectors must have been produced by a strictly earlier step
		// (the executor runs steps in order against one stripe).
		exprs := make([][]uint32, len(step.In))
		for j, s := range step.In {
			switch {
			case s < 0 || s >= total:
				report("bounds", si, "step reads sector %d outside the %d-sector stripe", s, total)
				exprs[j] = make([]uint32, total)
			case !faulty[s]:
				v := make([]uint32, total)
				v[s] = 1
				exprs[j] = v
				readSet[s] = true
			case recovered[s] != nil:
				exprs[j] = recovered[s]
			default:
				report("alias", si, "step reads faulty sector %d before any earlier step recovers it", s)
				exprs[j] = make([]uint32, total)
			}
		}

		for i, out := range step.Out {
			if out < 0 || out >= total {
				report("bounds", si, "step writes sector %d outside the %d-sector stripe", out, total)
				continue
			}
			if !faulty[out] {
				report("structure", si, "step recovers sector %d, which is not faulty", out)
				continue
			}
			if recovered[out] != nil {
				report("structure", si, "sector %d is recovered twice", out)
				continue
			}
			vec := make([]uint32, total)
			for j := range step.In {
				if a := eff.At(i, j); a != 0 {
					for t, e := range exprs[j] {
						if e != 0 {
							vec[t] ^= f.Mul(a, e)
						}
					}
				}
			}
			recovered[out] = vec
			residual := append([]uint32(nil), vec...)
			residual[out] ^= 1
			if !inRowSpace(h, residual) {
				report("symbolic", si,
					"sector %d's recovery expression does not lie in H's row space: it repairs wrongly on some codeword", out)
			}
		}

		if step.MinimizedRow >= 0 {
			switch {
			case step.MinimizedRow >= h.Rows():
				report("bounds", si, "step cites parity-check row %d of %d", step.MinimizedRow, h.Rows())
			case len(step.Out) != 1:
				report("structure", si, "single-row step recovers %d sectors", len(step.Out))
			case h.At(step.MinimizedRow, step.Out[0]) == 0:
				report("structure", si, "cited parity-check row %d does not touch sector %d", step.MinimizedRow, step.Out[0])
			}
		}
		ops += step.Ops
	}

	for _, w := range p.Wanted {
		if recovered[w] == nil {
			report("structure", -1, "wanted sector %d is never recovered by any step", w)
		}
	}

	// ReadCols must be exactly the survivors the steps read from the
	// array — an overstated set inflates repair bandwidth accounting, an
	// understated one starves the executor of inputs.
	want := make([]int, 0, len(readSet))
	for s := range readSet {
		want = append(want, s)
	}
	sort.Ints(want)
	if len(want) != len(p.ReadCols) {
		report("stats", -1, "plan lists %d read sectors, its steps read %d", len(p.ReadCols), len(want))
	} else {
		for i := range want {
			if want[i] != p.ReadCols[i] {
				report("stats", -1, "plan read set diverges at sector %d (plan lists %d)", want[i], p.ReadCols[i])
				break
			}
		}
	}
	if p.Cost.MultXORs != ops {
		report("stats", -1, "plan costs %d mult_XORs, its steps perform %d", p.Cost.MultXORs, ops)
	}
	if p.Cost.ReadSectors != len(p.ReadCols) {
		report("stats", -1, "plan costs %d read sectors, ReadCols has %d", p.Cost.ReadSectors, len(p.ReadCols))
	}
	return fs
}

// prefixOp re-homes nested xorplan findings under the repair step that
// owns the program, keeping the step index in the message.
func prefixOp(fs []Finding, step int) []Finding {
	for i := range fs {
		fs[i].Object = objRepairPlan
		fs[i].Message = fmt.Sprintf("step %d XOR program: %s", step, fs[i].Message)
	}
	return fs
}
