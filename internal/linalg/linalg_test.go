package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func vecAlmostEqual(a, b Vector, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol*(1+math.Abs(b[i])) {
			return false
		}
	}
	return true
}

func TestVectorArithmetic(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}

	sum, err := v.Add(w)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(sum, Vector{5, 7, 9}, 0) {
		t.Errorf("Add = %v", sum)
	}

	diff, err := w.Sub(v)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(diff, Vector{3, 3, 3}, 0) {
		t.Errorf("Sub = %v", diff)
	}

	if got := v.Scale(2); !vecAlmostEqual(got, Vector{2, 4, 6}, 0) {
		t.Errorf("Scale = %v", got)
	}

	dot, err := v.Dot(w)
	if err != nil || dot != 32 {
		t.Errorf("Dot = %g, %v; want 32", dot, err)
	}

	if err := v.AXPY(2, w); err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(v, Vector{9, 12, 15}, 0) {
		t.Errorf("AXPY = %v", v)
	}
}

func TestVectorDimensionErrors(t *testing.T) {
	v := Vector{1, 2}
	w := Vector{1, 2, 3}
	if _, err := v.Add(w); err == nil {
		t.Error("Add mismatched: want error")
	}
	if _, err := v.Sub(w); err == nil {
		t.Error("Sub mismatched: want error")
	}
	if _, err := v.Dot(w); err == nil {
		t.Error("Dot mismatched: want error")
	}
	if err := v.AXPY(1, w); err == nil {
		t.Error("AXPY mismatched: want error")
	}
}

func TestVectorNorms(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Norm2(); math.Abs(got-5) > 1e-14 {
		t.Errorf("Norm2 = %g, want 5", got)
	}
	if got := v.NormInf(); got != 4 {
		t.Errorf("NormInf = %g, want 4", got)
	}
	// Overflow safety: components near max float still give finite norm.
	big := Vector{1e308, 1e308}
	if got := big.Norm2(); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("Norm2 overflowed: %g", got)
	}
	var empty Vector
	if empty.Norm2() != 0 || empty.NormInf() != 0 {
		t.Error("empty vector norms must be 0")
	}
}

func TestVectorClone(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone aliases underlying array")
	}
}

func TestMatrixBasicOps(t *testing.T) {
	m, err := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 2 || m.Cols() != 2 || m.At(1, 0) != 3 {
		t.Error("matrix accessors broken")
	}
	mv, err := m.MulVec(Vector{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(mv, Vector{3, 7}, 0) {
		t.Errorf("MulVec = %v", mv)
	}
	mt := m.Transpose()
	if mt.At(0, 1) != 3 {
		t.Errorf("Transpose[0,1] = %g, want 3", mt.At(0, 1))
	}
	prod, err := m.Mul(Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if prod.At(i, j) != m.At(i, j) {
				t.Error("M·I != M")
			}
		}
	}
}

func TestMatrixMulKnown(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewMatrixFromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("Mul[%d,%d] = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatrixDimensionErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := a.MulVec(Vector{1, 2}); err == nil {
		t.Error("MulVec mismatched: want error")
	}
	if _, err := a.Mul(NewMatrix(2, 2)); err == nil {
		t.Error("Mul mismatched: want error")
	}
	if _, err := NewMatrixFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows: want error")
	}
	if _, err := NewMatrixFromRows(nil); err == nil {
		t.Error("empty rows: want error")
	}
	if _, err := a.Cholesky(); err == nil {
		t.Error("non-square Cholesky: want error")
	}
	if _, _, err := a.LU(); err == nil {
		t.Error("non-square LU: want error")
	}
}

func TestCholeskyKnownFactor(t *testing.T) {
	// A = L₀L₀ᵀ with L₀ = [[2,0],[1,3]] → A = [[4,2],[2,10]].
	a, _ := NewMatrixFromRows([][]float64{{4, 2}, {2, 10}})
	l, err := a.Cholesky()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{2, 0}, {1, 3}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(l.At(i, j)-want[i][j]) > 1e-14 {
				t.Errorf("L[%d,%d] = %g, want %g", i, j, l.At(i, j), want[i][j])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, −1
	if _, err := a.Cholesky(); err == nil {
		t.Error("indefinite matrix: want error")
	}
	z := NewMatrix(2, 2) // zero matrix
	if _, err := z.Cholesky(); err == nil {
		t.Error("zero matrix: want error")
	}
}

// Property: L·Lᵀ reconstructs random SPD matrices A = MᵀM + n·I.
func TestCholeskyReconstructionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		m := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		a, err := m.Transpose().Mul(m)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		l, err := a.Cholesky()
		if err != nil {
			return false
		}
		back, err := l.Mul(l.Transpose())
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(back.At(i, j)-a.At(i, j)) > 1e-9*(1+math.Abs(a.At(i, j))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSolveCholeskyKnownSystem(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{4, 2}, {2, 10}})
	x, err := a.SolveCholesky(Vector{10, 32})
	if err != nil {
		t.Fatal(err)
	}
	// 4x + 2y = 10, 2x + 10y = 32 → x = 1, y = 3.
	if !vecAlmostEqual(x, Vector{1, 3}, 1e-12) {
		t.Errorf("SolveCholesky = %v, want [1 3]", x)
	}
}

// Property: SolveCholesky and SolveLU agree on random SPD systems.
func TestSolversAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		m := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		a, err := m.Transpose().Mul(m)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		b := make(Vector, n)
		for i := range b {
			b[i] = rng.NormFloat64() * 10
		}
		x1, err := a.SolveCholesky(b)
		if err != nil {
			return false
		}
		x2, err := a.SolveLU(b)
		if err != nil {
			return false
		}
		return vecAlmostEqual(x1, x2, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSolveLUWithPivoting(t *testing.T) {
	// Zero on the initial pivot forces a row swap.
	a, _ := NewMatrixFromRows([][]float64{{0, 1}, {1, 0}})
	x, err := a.SolveLU(Vector{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(x, Vector{3, 2}, 1e-14) {
		t.Errorf("SolveLU = %v, want [3 2]", x)
	}
}

func TestSolveLUSingular(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := a.SolveLU(Vector{1, 2}); err == nil {
		t.Error("singular matrix: want error")
	}
}

// Property: LU solve residual ‖Ax − b‖ is tiny on random well-conditioned
// systems.
func TestSolveLUResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Add(i, i, float64(2*n)) // diagonal dominance
		}
		b := make(Vector, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := a.SolveLU(b)
		if err != nil {
			return false
		}
		ax, err := a.MulVec(x)
		if err != nil {
			return false
		}
		r, err := ax.Sub(b)
		if err != nil {
			return false
		}
		return r.NormInf() < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTriangularSolves(t *testing.T) {
	l, _ := NewMatrixFromRows([][]float64{{2, 0}, {1, 3}})
	y, err := l.ForwardSolve(Vector{4, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(y, Vector{2, 5.0 / 3}, 1e-14) {
		t.Errorf("ForwardSolve = %v", y)
	}
	u, _ := NewMatrixFromRows([][]float64{{2, 1}, {0, 3}})
	x, err := u.BackwardSolve(Vector{7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(x, Vector{2, 3}, 1e-14) {
		t.Errorf("BackwardSolve = %v", x)
	}

	sing := NewMatrix(2, 2)
	if _, err := sing.ForwardSolve(Vector{1, 1}); err == nil {
		t.Error("zero diagonal forward: want error")
	}
	if _, err := sing.BackwardSolve(Vector{1, 1}); err == nil {
		t.Error("zero diagonal backward: want error")
	}
}

func TestMatrixString(t *testing.T) {
	m := Identity(2)
	if s := m.String(); len(s) == 0 {
		t.Error("String() empty")
	}
}

func TestVectorInPlaceOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if err := v.CopyFrom(w); err != nil {
		t.Fatal(err)
	}
	if v[0] != 4 || v[2] != 6 {
		t.Fatalf("CopyFrom: %v", v)
	}
	v.Zero()
	if v[0] != 0 || v[2] != 0 {
		t.Fatalf("Zero: %v", v)
	}
	if err := v.CopyFrom(Vector{1}); err == nil {
		t.Fatal("CopyFrom accepted mismatched lengths")
	}
	m := NewMatrix(2, 2)
	m.Set(0, 0, 7)
	b := m.Clone()
	m.Zero()
	if m.At(0, 0) != 0 {
		t.Fatal("Matrix.Zero left data")
	}
	if err := m.CopyFrom(b); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 7 {
		t.Fatal("Matrix.CopyFrom lost data")
	}
	if err := m.CopyFrom(NewMatrix(3, 3)); err == nil {
		t.Fatal("Matrix.CopyFrom accepted mismatched shapes")
	}
}
