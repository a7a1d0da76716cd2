package transform

import (
	"math"
	"testing"
	"testing/quick"
)

// randBlock fills an n×n residual block deterministically from a seed,
// values in the signed residual range [-255, 255].
func randBlock(n int, seed int64) []int32 {
	b := make([]int32, n*n)
	s := uint64(seed)*2654435761 + 12345
	for i := range b {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		b[i] = int32(s%511) - 255
	}
	return b
}

func TestForwardInverseUnitGain4(t *testing.T) {
	testRoundTrip(t, Size4)
}

func TestForwardInverseUnitGain8(t *testing.T) {
	testRoundTrip(t, Size8)
}

// testRoundTrip verifies that Forward→Inverse recovers the residual within
// the ±1 rounding tolerance of the integer shift schedule.
func testRoundTrip(t *testing.T, n int) {
	t.Helper()
	for seed := int64(0); seed < 50; seed++ {
		src := randBlock(n, seed)
		coeffs := make([]int32, n*n)
		if err := Forward(n, src, coeffs); err != nil {
			t.Fatal(err)
		}
		back := make([]int32, n*n)
		if err := Inverse(n, coeffs, back); err != nil {
			t.Fatal(err)
		}
		for i := range src {
			d := src[i] - back[i]
			if d < -1 || d > 1 {
				t.Fatalf("seed %d: residual[%d] = %d, reconstructed %d (diff %d)", seed, i, src[i], back[i], d)
			}
		}
	}
}

func TestForwardDCCoefficient(t *testing.T) {
	// A constant block must put all energy in the DC coefficient.
	for _, n := range []int{Size4, Size8} {
		src := make([]int32, n*n)
		for i := range src {
			src[i] = 100
		}
		coeffs := make([]int32, n*n)
		if err := Forward(n, src, coeffs); err != nil {
			t.Fatal(err)
		}
		if coeffs[0] == 0 {
			t.Fatalf("n=%d: DC coefficient is zero", n)
		}
		for i := 1; i < n*n; i++ {
			if coeffs[i] != 0 {
				t.Fatalf("n=%d: AC coefficient %d = %d, want 0", n, i, coeffs[i])
			}
		}
		// The orthonormal 2-D DCT of a constant block x has DC = n·x, so
		// the integer transform yields n·x × forward gain — 12800 for both
		// sizes (100·4·32 and 100·8·16).
		want := int32(100 * float64(n) * forwardGain(n))
		if d := coeffs[0] - want; d < -2 || d > 2 {
			t.Fatalf("n=%d: DC = %d, want ≈%d", n, coeffs[0], want)
		}
	}
}

func TestForwardLinearity(t *testing.T) {
	// Property: T(a) + T(b) ≈ T(a+b) up to rounding of the shift stages.
	f := func(seedA, seedB int64) bool {
		n := Size8
		a := randBlock(n, seedA)
		b := randBlock(n, seedB)
		sum := make([]int32, n*n)
		for i := range sum {
			// Halve to stay in range.
			a[i] /= 2
			b[i] /= 2
			sum[i] = a[i] + b[i]
		}
		ca, cb, cs := make([]int32, n*n), make([]int32, n*n), make([]int32, n*n)
		if Forward(n, a, ca) != nil || Forward(n, b, cb) != nil || Forward(n, sum, cs) != nil {
			return false
		}
		for i := range cs {
			d := cs[i] - ca[i] - cb[i]
			if d < -4 || d > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTransformRejectsBadSizes(t *testing.T) {
	if err := Forward(5, make([]int32, 25), make([]int32, 25)); err == nil {
		t.Fatal("Forward accepted size 5")
	}
	if err := Forward(Size4, make([]int32, 15), make([]int32, 16)); err == nil {
		t.Fatal("Forward accepted short src")
	}
	if err := Inverse(Size8, make([]int32, 64), make([]int32, 63)); err == nil {
		t.Fatal("Inverse accepted short dst")
	}
}

func TestQstepDoubling(t *testing.T) {
	if got := Qstep(4); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Qstep(4) = %v, want 1", got)
	}
	for qp := MinQP; qp+6 <= MaxQP; qp++ {
		r := Qstep(qp+6) / Qstep(qp)
		if math.Abs(r-2) > 1e-9 {
			t.Fatalf("Qstep(%d+6)/Qstep(%d) = %v, want 2", qp, qp, r)
		}
	}
}

func TestNewQuantizerValidation(t *testing.T) {
	if _, err := NewQuantizer(Size4, -1, false); err == nil {
		t.Fatal("accepted QP -1")
	}
	if _, err := NewQuantizer(Size4, 52, false); err == nil {
		t.Fatal("accepted QP 52")
	}
	if _, err := NewQuantizer(6, 30, false); err == nil {
		t.Fatal("accepted size 6")
	}
}

func TestQuantizeZeroStaysZero(t *testing.T) {
	q, err := NewQuantizer(Size8, 32, false)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]int32, 64)
	dst := make([]int32, 64)
	if err := q.Quantize(src, dst); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("level[%d] = %d, want 0", i, v)
		}
	}
}

func TestQuantizeDequantizeBoundedError(t *testing.T) {
	// Property: the reconstruction error per coefficient is bounded by one
	// quantization step (scaled by the transform gain).
	for _, qp := range []int{22, 27, 32, 37, 42} {
		q, err := NewQuantizer(Size8, qp, false)
		if err != nil {
			t.Fatal(err)
		}
		step := Qstep(qp) * 16 // forward gain of 8×8
		for seed := int64(0); seed < 20; seed++ {
			src := randBlock(Size8, seed)
			// Scale up to plausible coefficient magnitudes.
			for i := range src {
				src[i] *= 16
			}
			lev := make([]int32, 64)
			rec := make([]int32, 64)
			if err := q.Quantize(src, lev); err != nil {
				t.Fatal(err)
			}
			if err := q.Dequantize(lev, rec); err != nil {
				t.Fatal(err)
			}
			for i := range src {
				if e := math.Abs(float64(src[i] - rec[i])); e > step+1 {
					t.Fatalf("QP %d seed %d: coeff %d error %v > step %v", qp, seed, i, e, step)
				}
			}
		}
	}
}

func TestHigherQPCoarser(t *testing.T) {
	// Higher QP must never produce more non-zero levels on the same data.
	src := randBlock(Size8, 99)
	prev := 1 << 30
	for _, qp := range []int{22, 27, 32, 37, 42} {
		q, err := NewQuantizer(Size8, qp, false)
		if err != nil {
			t.Fatal(err)
		}
		lev := make([]int32, 64)
		if err := q.Quantize(src, lev); err != nil {
			t.Fatal(err)
		}
		nz := 0
		for _, v := range lev {
			if v != 0 {
				nz++
			}
		}
		if nz > prev {
			t.Fatalf("QP %d has %d non-zeros, more than lower QP's %d", qp, nz, prev)
		}
		prev = nz
	}
}

func TestQuantizeSymmetry(t *testing.T) {
	// Property: Quantize(−c) == −Quantize(c).
	f := func(seed int64) bool {
		q, err := NewQuantizer(Size4, 30, true)
		if err != nil {
			return false
		}
		src := randBlock(Size4, seed)
		neg := make([]int32, len(src))
		for i := range src {
			neg[i] = -src[i]
		}
		a, b := make([]int32, len(src)), make([]int32, len(src))
		if q.Quantize(src, a) != nil || q.Quantize(neg, b) != nil {
			return false
		}
		for i := range a {
			if a[i] != -b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeAliasingAllowed(t *testing.T) {
	q, err := NewQuantizer(Size4, 27, false)
	if err != nil {
		t.Fatal(err)
	}
	src := randBlock(Size4, 7)
	ref := make([]int32, len(src))
	if err := q.Quantize(src, ref); err != nil {
		t.Fatal(err)
	}
	if err := q.Quantize(src, src); err != nil { // in place
		t.Fatal(err)
	}
	for i := range src {
		if src[i] != ref[i] {
			t.Fatalf("in-place quantize diverged at %d", i)
		}
	}
}

var benchBlock []int32

func BenchmarkForward8(b *testing.B) {
	src, dst := randBlock(Size8, 3), make([]int32, Size8*Size8)
	b.ReportAllocs()
	for b.Loop() {
		if err := Forward(Size8, src, dst); err != nil {
			b.Fatal(err)
		}
	}
	benchBlock = dst
}

func BenchmarkInverse8(b *testing.B) {
	src, dst := randBlock(Size8, 3), make([]int32, Size8*Size8)
	if err := Forward(Size8, src, src); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := Inverse(Size8, src, dst); err != nil {
			b.Fatal(err)
		}
	}
	benchBlock = dst
}
