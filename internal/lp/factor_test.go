package lp

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// randomBasisMatrix builds a random nonsingular-ish sparse m x m matrix as
// a CSC (diagonal dominance guarantees nonsingularity).
func randomBasisMatrix(rng *testRand, m int) *CSC {
	tb := NewTripletBuilder(m, m)
	for j := 0; j < m; j++ {
		tb.Add(j, j, 2+rng.float()*3) // strong diagonal
		nnz := rng.intn(3)
		for t := 0; t < nnz; t++ {
			i := rng.intn(m)
			if i != j {
				tb.Add(i, j, rng.float()*1.5-0.75)
			}
		}
	}
	return tb.ToCSC()
}

// ftranDense and btranDense solve a dense right-hand side through the
// sparse contract, listing every nonzero as recomputeXB and computeDuals
// do.
func ftranDense(f Factorizer, b []float64) []int32 { return f.Ftran(b, nonzeros(b, nil), nil) }

func btranDense(f Factorizer, c []float64) []int32 { return f.Btran(c, nonzeros(c, nil), nil) }

// checkFtranBtran verifies B*x = b and B^T*y = c round-trips for a
// factorizer against direct multiplication.
func checkFtranBtran(t *testing.T, f Factorizer, a *CSC, basis []int, rng *testRand) {
	t.Helper()
	m := len(basis)
	if err := f.Factor(a, basis); err != nil {
		t.Fatalf("factor: %v", err)
	}
	// FTRAN: pick x0, compute b = B*x0, solve, compare.
	x0 := make([]float64, m)
	for i := range x0 {
		x0[i] = rng.float()*4 - 2
	}
	b := make([]float64, m)
	for c, j := range basis {
		ri, rv := a.Col(j)
		for k, r := range ri {
			b[r] += rv[k] * x0[c]
		}
	}
	checkPattern(t, "Ftran", b, ftranDense(f, b))
	for i := range b {
		if math.Abs(b[i]-x0[i]) > 1e-7 {
			t.Fatalf("Ftran mismatch at %d: got %g want %g", i, b[i], x0[i])
		}
	}
	// BTRAN: pick y0, compute c = B^T*y0, solve, compare.
	y0 := make([]float64, m)
	for i := range y0 {
		y0[i] = rng.float()*4 - 2
	}
	cv := make([]float64, m)
	for c, j := range basis {
		ri, rv := a.Col(j)
		for k, r := range ri {
			cv[c] += rv[k] * y0[r]
		}
	}
	checkPattern(t, "Btran", cv, btranDense(f, cv))
	for i := range cv {
		if math.Abs(cv[i]-y0[i]) > 1e-7 {
			t.Fatalf("Btran mismatch at %d: got %g want %g", i, cv[i], y0[i])
		}
	}
}

func TestDenseFactorRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := newTestRand(seed)
		m := 3 + rng.intn(40)
		a := randomBasisMatrix(rng, m)
		basis := make([]int, m)
		for i := range basis {
			basis[i] = i
		}
		checkFtranBtran(t, NewDenseFactor(0), a, basis, rng)
	}
}

func TestSparseFactorRoundTrip(t *testing.T) {
	for seed := uint64(30); seed <= 60; seed++ {
		rng := newTestRand(seed)
		m := 3 + rng.intn(120)
		a := randomBasisMatrix(rng, m)
		basis := make([]int, m)
		for i := range basis {
			basis[i] = i
		}
		checkFtranBtran(t, NewSparseFactor(0), a, basis, rng)
	}
}

func TestFactorUpdateConsistency(t *testing.T) {
	// After Update replacing a basis column, FTRAN must solve against the
	// NEW basis. Cross-check dense and sparse backends on the same updates.
	for seed := uint64(70); seed <= 80; seed++ {
		rng := newTestRand(seed)
		m := 10 + rng.intn(30)
		// Matrix with 2m columns so there are spares to pivot in.
		tb := NewTripletBuilder(m, 2*m)
		for j := 0; j < 2*m; j++ {
			tb.Add(j%m, j, 2+rng.float()*3)
			if j >= m {
				tb.Add(rng.intn(m), j, rng.float()-0.5)
			}
		}
		a := tb.ToCSC()
		for _, fac := range []Factorizer{NewDenseFactor(0), NewSparseFactor(0)} {
			basis := make([]int, m)
			for i := range basis {
				basis[i] = i
			}
			if err := fac.Factor(a, basis); err != nil {
				t.Fatal(err)
			}
			// Replace a few columns with spares via Update.
			for rep := 0; rep < 5; rep++ {
				pos := rng.intn(m)
				newCol := m + rng.intn(m)
				w := make([]float64, m)
				ri, rv := a.Col(newCol)
				for k, r := range ri {
					w[r] = rv[k]
				}
				ftranDense(fac, w)
				if math.Abs(w[pos]) < 1e-6 {
					continue // replacement would make the basis singular
				}
				if _, err := fac.Update(w, pos); err != nil {
					t.Fatalf("update: %v", err)
				}
				basis[pos] = newCol
			}
			checkFtranBtran(t, fac, a, basis, newTestRand(seed+1000))
		}
	}
}

func TestSingularBasisRejected(t *testing.T) {
	tb := NewTripletBuilder(2, 2)
	tb.Add(0, 0, 1)
	tb.Add(0, 1, 2) // second column parallel to first: singular
	a := tb.ToCSC()
	basis := []int{0, 1}
	if err := NewDenseFactor(0).Factor(a, basis); err == nil {
		t.Error("dense factor accepted a singular basis")
	}
	if err := NewSparseFactor(0).Factor(a, basis); err == nil {
		t.Error("sparse factor accepted a singular basis")
	}
}

func TestCSCProperties(t *testing.T) {
	check := func(seed uint64) bool {
		rng := newTestRand(seed%1000 + 1)
		rows, cols := 1+rng.intn(20), 1+rng.intn(20)
		tb := NewTripletBuilder(rows, cols)
		dense := make([][]float64, rows)
		for i := range dense {
			dense[i] = make([]float64, cols)
		}
		nnz := rng.intn(60)
		for t := 0; t < nnz; t++ {
			r, c := rng.intn(rows), rng.intn(cols)
			v := rng.float()*2 - 1
			tb.Add(r, c, v) // duplicates must be summed
			dense[r][c] += v
		}
		a := tb.ToCSC()
		// Columns sorted by row, no explicit zeros, values match.
		for j := 0; j < cols; j++ {
			ri, rv := a.Col(j)
			for k := range ri {
				if k > 0 && ri[k] <= ri[k-1] {
					return false
				}
				if rv[k] == 0 {
					return false
				}
				if math.Abs(rv[k]-dense[ri[k]][j]) > 1e-12 {
					return false
				}
			}
		}
		// MulVec agrees with the dense product.
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.float()*2 - 1
		}
		y := a.MulVec(x)
		for i := 0; i < rows; i++ {
			want := 0.0
			for j := 0; j < cols; j++ {
				want += dense[i][j] * x[j]
			}
			if math.Abs(y[i]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPartialPricingMatchesFull(t *testing.T) {
	// Partial pricing changes the path, not the optimum.
	for seed := uint64(200); seed <= 215; seed++ {
		rng := newTestRand(seed)
		m := randLP(rng, 30+rng.intn(40), 30+rng.intn(40))
		full, err := SolveModel(m, Options{SectionSize: -1})
		if err != nil {
			t.Fatalf("seed %d full: %v", seed, err)
		}
		partial, err := SolveModel(m, Options{SectionSize: 7})
		if err != nil {
			t.Fatalf("seed %d partial: %v", seed, err)
		}
		if math.Abs(full.Objective-partial.Objective) > 1e-5*math.Max(1, math.Abs(full.Objective)) {
			t.Errorf("seed %d: full %g != partial %g", seed, full.Objective, partial.Objective)
		}
	}
}

// benchBackendCycle drives one backend through the simplex's per-iteration
// factorization traffic — FTRAN of an entering column, a unit BTRAN (the
// devex pivot row), and the basis update, refactorizing when the backend
// asks — on the well-conditioned twin-column matrix of the long-chain test.
// Like the simplex it passes each solve its input pattern and clears the
// previous result over the returned one. The dense/sparse crossover (the
// Options.DenseLimit default) is chosen where the sparse backend overtakes
// the dense one on this cycle.
func benchBackendCycle(b *testing.B, f Factorizer, m int) {
	rng := newTestRand(42)
	tb := NewTripletBuilder(m, 2*m)
	for j := 0; j < 2*m; j++ {
		tb.Add(j%m, j, 2+rng.float()*3)
		if j >= m {
			tb.Add(rng.intn(m), j, rng.float()-0.5)
		}
	}
	a := tb.ToCSC()
	basis := make([]int, m)
	inBasis := make([]bool, 2*m)
	for i := range basis {
		basis[i] = i
		inBasis[i] = true
	}
	if err := f.Factor(a, basis); err != nil {
		b.Fatal(err)
	}
	w := make([]float64, m)
	beta := make([]float64, m)
	var nz, wPat, betaPat []int32
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		pos := rng.intn(m)
		newCol := (basis[pos] + m) % (2 * m)
		if inBasis[newCol] {
			continue
		}
		for _, i := range wPat {
			w[i] = 0
		}
		ri, rv := a.Col(newCol)
		nz = nz[:0]
		for k, r := range ri {
			w[r] = rv[k]
			nz = append(nz, int32(r))
		}
		wPat = f.Ftran(w, nz, wPat)
		if abs(w[pos]) < 1e-6 {
			continue
		}
		for _, i := range betaPat {
			beta[i] = 0
		}
		beta[pos] = 1
		betaPat = f.Btran(beta, []int32{int32(pos)}, betaPat)
		inBasis[basis[pos]] = false
		inBasis[newCol] = true
		basis[pos] = newCol
		refactor, err := f.Update(w, pos)
		if err != nil {
			refactor = true
		}
		if refactor {
			if err := f.Factor(a, basis); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFactorCycle compares the backends up to a few hundred rows; the
// m=10000 case, the size of the transit-stub sweep's bases, runs the
// sparse backend alone (a dense LU of that size is 800 MB).
func BenchmarkFactorCycle(b *testing.B) {
	for _, m := range []int{10, 20, 30, 50, 75, 100, 200, 400} {
		b.Run(fmt.Sprintf("dense/m=%d", m), func(b *testing.B) {
			benchBackendCycle(b, NewDenseFactor(0), m)
		})
		b.Run(fmt.Sprintf("sparse/m=%d", m), func(b *testing.B) {
			benchBackendCycle(b, NewSparseFactor(0), m)
		})
	}
	b.Run("sparse/m=10000", func(b *testing.B) {
		benchBackendCycle(b, NewSparseFactor(0), 10000)
	})
}
