package circuit

import (
	"fmt"
	"math"

	"repro/internal/la"
)

// OPResult holds a DC operating point: node voltages (index by node id;
// ground is 0) and the branch currents of voltage sources and inductors.
type OPResult struct {
	V           []float64
	BranchI     []float64
	NewtonIters int
}

// OperatingPoint solves the DC operating point of the circuit at time
// t = 0: capacitors are opened, inductors shorted, sources held at their
// t = 0 values, and the nonlinear system solved by the same damped
// Newton–Raphson used in transient analysis. This is the classical .OP
// analysis used to initialize transient runs and to bias-check rectifier
// stacks.
func (c *Circuit) OperatingPoint(cfg TransientConfig) (*OPResult, error) {
	cfg.defaults()
	nn := len(c.nodeNames) - 1
	dim := nn + c.nBranch
	if dim == 0 {
		return &OPResult{}, nil
	}
	x := make([]float64, dim)

	for it := 0; it < cfg.MaxNewton; it++ {
		g := la.NewMatrix(dim, dim)
		rhs := make([]float64, dim)

		stampConductance := func(a, b int, val float64) {
			if a > 0 {
				g.Add(a-1, a-1, val)
			}
			if b > 0 {
				g.Add(b-1, b-1, val)
			}
			if a > 0 && b > 0 {
				g.Add(a-1, b-1, -val)
				g.Add(b-1, a-1, -val)
			}
		}
		stampCurrent := func(a, b int, i float64) {
			if a > 0 {
				rhs[a-1] -= i
			}
			if b > 0 {
				rhs[b-1] += i
			}
		}

		for _, e := range c.elems {
			switch e.kind {
			case kindResistor:
				stampConductance(e.a, e.b, 1/e.value)

			case kindCapacitor:
				// Open at DC; a tiny conductance keeps otherwise floating
				// nodes solvable (SPICE's gmin to ground idiom).
				stampConductance(e.a, e.b, 1e-12)

			case kindInductor:
				// Short at DC: branch equation v_a − v_b = 0.
				bi := nn + e.branch
				if e.a > 0 {
					g.Add(e.a-1, bi, 1)
					g.Add(bi, e.a-1, 1)
				}
				if e.b > 0 {
					g.Add(e.b-1, bi, -1)
					g.Add(bi, e.b-1, -1)
				}

			case kindDiode:
				vd := c.branchVoltage(e, x)
				gd, ieq := diodeCompanion(e.diode, vd)
				stampConductance(e.a, e.b, gd)
				stampCurrent(e.a, e.b, ieq)

			case kindVSource:
				bi := nn + e.branch
				if e.a > 0 {
					g.Add(e.a-1, bi, 1)
					g.Add(bi, e.a-1, 1)
				}
				if e.b > 0 {
					g.Add(e.b-1, bi, -1)
					g.Add(bi, e.b-1, -1)
				}
				rhs[bi] += e.wave(0)
			}
		}

		lu, err := la.FactorLU(g)
		if err != nil {
			return nil, fmt.Errorf("circuit: singular DC matrix (floating node?): %w", err)
		}
		sol, err := lu.Solve(rhs)
		if err != nil {
			return nil, err
		}
		var maxDelta float64
		for i := 0; i < dim; i++ {
			d := sol[i] - x[i]
			if i < nn {
				if d > cfg.Damping {
					d = cfg.Damping
				} else if d < -cfg.Damping {
					d = -cfg.Damping
				}
				if a := math.Abs(d); a > maxDelta {
					maxDelta = a
				}
			}
			x[i] += d
		}
		if maxDelta <= cfg.VTol {
			res := &OPResult{V: make([]float64, len(c.nodeNames)), NewtonIters: it + 1}
			for n := 1; n < len(c.nodeNames); n++ {
				res.V[n] = x[n-1]
			}
			res.BranchI = append([]float64(nil), x[nn:]...)
			return res, nil
		}
	}
	return nil, ErrNoConverge
}
