// Package rsm implements the response surface methodology at the heart of
// the paper's design flow: polynomial models over coded factors, fitted by
// QR least squares to the simulated responses at the DoE design points,
// with the standard diagnostics (ANOVA, R², adjusted R², PRESS/R²-pred,
// coefficient t-tests, lack of fit, outlier runs) and canonical analysis
// of fitted quadratics.
//
// Once fitted, evaluating a surface costs a handful of multiplications —
// this is what makes design-space exploration "practically instant"
// compared with re-running the transient simulator.
package rsm

import (
	"fmt"
	"sort"
	"strings"
)

// Term is one monomial of a polynomial model: Powers[j] is the exponent of
// factor j. The all-zero term is the intercept.
type Term struct {
	Powers []int
}

// Degree returns the total degree of the term.
func (t Term) Degree() int {
	d := 0
	for _, p := range t.Powers {
		d += p
	}
	return d
}

// Eval returns the monomial value at the coded point x.
func (t Term) Eval(x []float64) float64 {
	v := 1.0
	for j, p := range t.Powers {
		for i := 0; i < p; i++ {
			v *= x[j]
		}
	}
	return v
}

// Label renders the term using the given factor names ("1" for the
// intercept, "x1·x2", "x1²", …).
func (t Term) Label(names []string) string {
	var parts []string
	for j, p := range t.Powers {
		name := fmt.Sprintf("x%d", j+1)
		if j < len(names) && names[j] != "" {
			name = names[j]
		}
		switch p {
		case 0:
		case 1:
			parts = append(parts, name)
		case 2:
			parts = append(parts, name+"²")
		default:
			parts = append(parts, fmt.Sprintf("%s^%d", name, p))
		}
	}
	if len(parts) == 0 {
		return "1"
	}
	return strings.Join(parts, "·")
}

// equal reports whether two terms have identical powers.
func (t Term) equal(other Term) bool {
	if len(t.Powers) != len(other.Powers) {
		return false
	}
	for i := range t.Powers {
		if t.Powers[i] != other.Powers[i] {
			return false
		}
	}
	return true
}

// Model is a polynomial model over k coded factors.
type Model struct {
	K     int
	Terms []Term
}

// P returns the number of model terms (the regression dimension).
func (m Model) P() int { return len(m.Terms) }

// Validate checks internal consistency.
func (m Model) Validate() error {
	if m.K < 1 {
		return fmt.Errorf("rsm: model needs ≥1 factor, got %d", m.K)
	}
	if len(m.Terms) == 0 {
		return fmt.Errorf("rsm: model has no terms")
	}
	for i, t := range m.Terms {
		if len(t.Powers) != m.K {
			return fmt.Errorf("rsm: term %d has %d powers, want %d", i, len(t.Powers), m.K)
		}
		for j, p := range t.Powers {
			if p < 0 {
				return fmt.Errorf("rsm: term %d has negative power for factor %d", i, j)
			}
		}
		for j := 0; j < i; j++ {
			if t.equal(m.Terms[j]) {
				return fmt.Errorf("rsm: duplicate term %d and %d", j, i)
			}
		}
	}
	return nil
}

// Row expands the coded point x into the model-matrix row.
func (m Model) Row(x []float64) []float64 {
	return m.RowInto(x, make([]float64, len(m.Terms)))
}

// RowInto expands the coded point x into dst, reusing its backing array
// when it is large enough — the allocation-free path for batch prediction
// hot loops. It returns the (possibly re-sliced) destination.
func (m Model) RowInto(x, dst []float64) []float64 {
	if cap(dst) < len(m.Terms) {
		dst = make([]float64, len(m.Terms))
	}
	dst = dst[:len(m.Terms)]
	for i, t := range m.Terms {
		dst[i] = t.Eval(x)
	}
	return dst
}

// intercept returns the all-zero term for k factors.
func intercept(k int) Term { return Term{Powers: make([]int, k)} }

// unit returns the term x_j.
func unit(k, j int) Term {
	t := Term{Powers: make([]int, k)}
	t.Powers[j] = 1
	return t
}

// Linear returns the first-order model 1 + Σ x_j.
func Linear(k int) Model {
	m := Model{K: k, Terms: []Term{intercept(k)}}
	for j := 0; j < k; j++ {
		m.Terms = append(m.Terms, unit(k, j))
	}
	return m
}

// LinearWithInteractions returns 1 + Σ x_j + Σ x_i·x_j (i<j).
func LinearWithInteractions(k int) Model {
	m := Linear(k)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			t := Term{Powers: make([]int, k)}
			t.Powers[i], t.Powers[j] = 1, 1
			m.Terms = append(m.Terms, t)
		}
	}
	return m
}

// FullQuadratic returns the second-order model
// 1 + Σ x_j + Σ x_j² + Σ x_i·x_j — the standard RSM basis.
func FullQuadratic(k int) Model {
	m := LinearWithInteractions(k)
	for j := 0; j < k; j++ {
		t := Term{Powers: make([]int, k)}
		t.Powers[j] = 2
		m.Terms = append(m.Terms, t)
	}
	// Canonical ordering: intercept, linear, interactions, squares is fine,
	// but sort by (degree, powers) for stable reporting.
	sort.SliceStable(m.Terms, func(a, b int) bool {
		da, db := m.Terms[a].Degree(), m.Terms[b].Degree()
		if da != db {
			return da < db
		}
		return false
	})
	return m
}
