package lp

import (
	"fmt"
	"math"
	"testing"
)

// The reference solves below are the plain dense walks over the stored
// factors, written out independently of the solver: every entry of every
// stage is visited, in the order the hyper-sparse solves must reproduce.
// TestHyperSparseSolvesBitIdentical holds SparseFactor's Ftran and Btran
// to them bit for bit.

// refFtran returns B^-1 b: permute, L solve (push, ascending pivot
// order), row etas in recording order, U solve (push, descending logical
// order), permute back.
func refFtran(s *SparseFactor, b []float64) []float64 {
	lu, u, m := s.lu, &s.u, s.m
	x := make([]float64, m)
	for i := 0; i < m; i++ {
		x[lu.pinv[i]] = b[i]
	}
	for j := 0; j < m; j++ {
		if xj := x[j]; xj != 0 {
			for p := lu.lp[j] + 1; p < lu.lp[j+1]; p++ {
				x[lu.li[p]] -= lu.lx[p] * xj
			}
		}
	}
	for _, e := range u.etas {
		sum := 0.0
		for i, r := range e.idx {
			sum += e.val[i] * x[r]
		}
		x[e.t] -= sum
	}
	for j := u.otail; j >= 0; j = u.oprev[j] {
		xj := x[j] / u.diag[j]
		x[j] = xj
		if xj != 0 {
			c := &u.cols[j]
			for e, r := range c.ri {
				x[r] -= c.rv[e] * xj
			}
		}
	}
	out := make([]float64, m)
	for k := 0; k < m; k++ {
		out[lu.q[k]] = x[k]
	}
	return out
}

// refBtran returns B^-T c: permute, U^T solve, transposed row etas in
// reverse order, L^T solve (pull, descending), permute back. The U^T solve
// takes one of two summation orders by the input's nonzero count: inputs
// under the density gate push each finished entry along its row in
// logical order; denser ones pull along columns.
func refBtran(s *SparseFactor, c []float64) []float64 {
	lu, u, m := s.lu, &s.u, s.m
	x := make([]float64, m)
	nnz := 0
	for k := 0; k < m; k++ {
		x[k] = c[lu.q[k]]
		if x[k] != 0 {
			nnz++
		}
	}
	if nnz*utsolveSparseRatio <= m {
		for j := u.ohead; j >= 0; j = u.onext[j] {
			xj := x[j] / u.diag[j]
			x[j] = xj
			if xj == 0 {
				continue
			}
			for _, en := range u.rows[j] {
				if en.gen == u.cols[en.col].gen {
					x[en.col] -= en.val * xj
				}
			}
		}
	} else {
		for j := u.ohead; j >= 0; j = u.onext[j] {
			sum := x[j]
			col := &u.cols[j]
			for e, r := range col.ri {
				sum -= col.rv[e] * x[r]
			}
			x[j] = sum / u.diag[j]
		}
	}
	for k := len(u.etas) - 1; k >= 0; k-- {
		e := &u.etas[k]
		if xt := x[e.t]; xt != 0 {
			for i, r := range e.idx {
				x[r] -= e.val[i] * xt
			}
		}
	}
	for j := m - 1; j >= 0; j-- {
		sum := x[j]
		for p := lu.lp[j] + 1; p < lu.lp[j+1]; p++ {
			sum -= lu.lx[p] * x[lu.li[p]]
		}
		x[j] = sum
	}
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		out[i] = x[lu.pinv[i]]
	}
	return out
}

// checkSolve compares a solve's in-place result and returned pattern with
// the reference, and checks that the solve left its scratch all-zero.
func checkSolve(t *testing.T, what string, s *SparseFactor, got, want []float64, pat []int32) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(g == 0 && w == 0) {
			t.Fatalf("%s: entry %d = %v (%#x), reference %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	checkPattern(t, what, got, pat)
	for k, v := range s.tmp {
		if v != 0 {
			t.Fatalf("%s: work vector left nonzero at %d", what, k)
		}
	}
	for w, word := range s.u.bits {
		if word != 0 {
			t.Fatalf("%s: ordering bitmap left nonzero in word %d", what, w)
		}
	}
}

// checkPattern fails unless pat is exactly the ascending list of v's
// nonzero positions.
func checkPattern(t *testing.T, what string, v []float64, pat []int32) {
	t.Helper()
	n := 0
	for i, x := range v {
		if x == 0 {
			continue
		}
		if n >= len(pat) || int(pat[n]) != i {
			t.Fatalf("%s: pattern %v is not the ascending nonzero set (missing or misplaced %d)", what, pat, i)
		}
		n++
	}
	if n != len(pat) {
		t.Fatalf("%s: pattern has %d entries, result %d nonzeros", what, len(pat), n)
	}
}

// hyperSparseMatrix builds an m x 2m matrix whose column j and twin j+m
// both carry a strong entry on row j plus up to two weak off-diagonal
// entries. Any basis taking one column of each twin pair is strictly
// column diagonally dominant, so arbitrarily long swap chains stay
// nonsingular and well conditioned, while the off-diagonals give L and U
// real fill for the solves to propagate through.
func hyperSparseMatrix(rng *testRand, m int) *CSC {
	tb := NewTripletBuilder(m, 2*m)
	for j := 0; j < 2*m; j++ {
		tb.Add(j%m, j, 2+rng.float()*3)
		for n := rng.intn(3); n > 0; n-- {
			if i := rng.intn(m); i != j%m {
				tb.Add(i, j, rng.float()*1.5-0.75)
			}
		}
	}
	return tb.ToCSC()
}

// TestHyperSparseSolvesBitIdentical drives SparseFactor through hundreds
// of Forrest-Tomlin updates across refactorizations, in the simplex's call
// order, and holds every solve to the dense reference bit for bit: the
// entering column's FTRAN and the unit BTRAN of its pivot row before each
// update, dense solves after each refactorization (recomputeXB, the duals)
// and between updates, and random sparse inputs on both sides of the
// density gate, some listing rows that are zero.
func TestHyperSparseSolvesBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		seed    uint64
		m       int
		maxEtas int
	}{
		{1, 512, 40},
		{2, 700, 0},
		{3, 1024, 120},
	} {
		t.Run(fmt.Sprintf("m=%d", tc.m), func(t *testing.T) {
			rng := newTestRand(tc.seed)
			m := tc.m
			a := hyperSparseMatrix(rng, m)
			basis := make([]int, m)
			for i := range basis {
				basis[i] = i
			}
			s := NewSparseFactor(tc.maxEtas)
			if err := s.Factor(a, basis); err != nil {
				t.Fatal(err)
			}
			b := make([]float64, m)
			var nz, out []int32
			solve := func(what string, ftran bool, in []float64, list []int32) {
				t.Helper()
				copy(b, in)
				var want []float64
				if ftran {
					want = refFtran(s, b)
					out = s.Ftran(b, list, out)
				} else {
					want = refBtran(s, b)
					out = s.Btran(b, list, out)
				}
				checkSolve(t, what, s, b, want, out)
			}
			in := make([]float64, m)
			sparseInput := func(k int) ([]float64, []int32) {
				for i := range in {
					in[i] = 0
				}
				nz = nz[:0]
				for len(nz) < k {
					i := rng.intn(m)
					if in[i] != 0 {
						continue
					}
					in[i] = rng.float()*4 - 2
					nz = append(nz, int32(i))
				}
				// A listed row may hold a zero.
				for extra := rng.intn(3); extra > 0; extra-- {
					if i := rng.intn(m); in[i] == 0 && !contains(nz, int32(i)) {
						nz = append(nz, int32(i))
					}
				}
				return in, nz
			}
			denseChecks := func(step int) {
				for i := range in {
					in[i] = 0
					if rng.intn(4) != 0 {
						in[i] = rng.float()*4 - 2
					}
				}
				solve(fmt.Sprintf("step %d dense ftran", step), true, in, nonzeros(in, nil))
				solve(fmt.Sprintf("step %d dense btran", step), false, in, nonzeros(in, nil))
			}
			denseChecks(0)
			updates, refactors := 0, 0
			for step := 1; updates < 600; step++ {
				pos := rng.intn(m)
				col := (basis[pos] + m) % (2 * m)
				ri, rv := a.Col(col)
				for i := range in {
					in[i] = 0
				}
				nz = nz[:0]
				for k, r := range ri {
					in[r] = rv[k]
					nz = append(nz, int32(r))
				}
				w := make([]float64, m)
				copy(b, in)
				want := refFtran(s, b)
				wPat := s.Ftran(b, nz, nil)
				checkSolve(t, fmt.Sprintf("step %d column ftran", step), s, b, want, wPat)
				copy(w, b)
				for i := range in {
					in[i] = 0
				}
				in[pos] = 1
				solve(fmt.Sprintf("step %d unit btran", step), false, in, []int32{int32(pos)})
				basis[pos] = col
				refactor, err := s.Update(w, pos)
				if err != nil {
					refactor = true
				}
				updates++
				if refactor {
					if err := s.Factor(a, basis); err != nil {
						t.Fatal(err)
					}
					refactors++
					denseChecks(step)
				}
				k := 1 + rng.intn(3*m/utsolveSparseRatio)
				v, list := sparseInput(k)
				solve(fmt.Sprintf("step %d sparse ftran (k=%d)", step, k), true, v, list)
				v, list = sparseInput(k)
				solve(fmt.Sprintf("step %d sparse btran (k=%d)", step, k), false, v, list)
				if step%25 == 0 {
					denseChecks(step)
				}
			}
			if refactors == 0 {
				t.Fatalf("no refactorization in %d updates", updates)
			}
		})
	}
}

func contains(pat []int32, i int32) bool {
	for _, p := range pat {
		if p == i {
			return true
		}
	}
	return false
}
