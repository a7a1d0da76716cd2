// Package transform implements the HEVC-style integer core transform for
// 4×4 and 8×8 blocks together with scalar quantization driven by the HEVC
// quantization parameter (Qstep = 2^((QP−4)/6)).
//
// The forward path uses the HEVC partial-butterfly matrices and bit-exact
// shift schedule (first-stage shift log2(N)+B−9 with B = 8-bit video,
// second-stage shift log2(N)+6); the inverse path uses shifts 7 and 12.
// With this schedule the concatenation forward→inverse has unit gain, so a
// quantizer with Qstep expressed in *spatial-domain* units can divide the
// transform coefficients after compensating the known forward gain
// (32 for 4×4, 16 for 8×8).
package transform

import (
	"fmt"
	"math"
)

// Block sizes supported by the core transform.
const (
	Size4 = 4
	Size8 = 8
)

// forwardGain returns the end-to-end multiplicative gain of the forward
// transform relative to an orthonormal DCT for block size n.
func forwardGain(n int) float64 {
	switch n {
	case Size4:
		return 32
	case Size8:
		return 16
	default:
		panic(fmt.Sprintf("transform: unsupported size %d", n))
	}
}

// shifts returns the HEVC forward shift schedule for size n (8-bit video).
func shifts(n int) (s1, s2 uint) {
	switch n {
	case Size4:
		return 1, 8 // log2(4)+8−9, log2(4)+6
	case Size8:
		return 2, 9 // log2(8)+8−9, log2(8)+6
	default:
		panic(fmt.Sprintf("transform: unsupported size %d", n))
	}
}

// Forward applies the 2-D forward core transform in place semantics:
// src is an n×n residual block (row-major, length n*n) and dst receives the
// n×n coefficient block. src and dst may alias.
func Forward(n int, src, dst []int32) error {
	if err := checkBlock(n, src, dst); err != nil {
		return err
	}
	s1, s2 := shifts(n)
	// Fixed-size stage scratch stays on the caller's stack, keeping the
	// per-sub-block transform allocation-free.
	if n == Size4 {
		var tmp [Size4 * Size4]int32
		forward4(src, &tmp, s1)
		forward4(tmp[:], (*[Size4 * Size4]int32)(dst), s2)
		return nil
	}
	var tmp [Size8 * Size8]int32
	forward8(src, &tmp, s1)
	forward8(tmp[:], (*[Size8 * Size8]int32)(dst), s2)
	return nil
}

// Inverse applies the 2-D inverse core transform: src is an n×n coefficient
// block and dst receives the reconstructed residual. src and dst may alias.
func Inverse(n int, src, dst []int32) error {
	if err := checkBlock(n, src, dst); err != nil {
		return err
	}
	if n == Size4 {
		var tmp [Size4 * Size4]int32
		inverse4(src, &tmp, 7)
		inverse4(tmp[:], (*[Size4 * Size4]int32)(dst), 12)
		return nil
	}
	var tmp [Size8 * Size8]int32
	inverse8(src, &tmp, 7)
	inverse8(tmp[:], (*[Size8 * Size8]int32)(dst), 12)
	return nil
}

// The four stages below are the HEVC partial butterflies: one separable
// pass of the core matrix M (rows of the 4×4 matrix
// {64,64,64,64; 83,36,-36,-83; 64,-64,-64,64; 36,-83,83,-36} and of its
// 8×8 counterpart) split into even and odd halves. For each row r of src
// (a vector v), dst column r receives M·v (forward) or Mᵀ·v (inverse),
// rounded and shifted right; writing transposed means two passes complete
// the 2-D transform. Accumulation is in int64, so every int32 input gives
// the same result as the plain matrix product (the package tests hold the
// product as the reference).

func forward4(src []int32, dst *[Size4 * Size4]int32, shift uint) {
	src = src[:Size4*Size4]
	round := int64(1) << (shift - 1)
	for r := 0; r < Size4; r++ {
		v := src[r*Size4 : r*Size4+Size4 : r*Size4+Size4]
		e0, o0 := int64(v[0])+int64(v[3]), int64(v[0])-int64(v[3])
		e1, o1 := int64(v[1])+int64(v[2]), int64(v[1])-int64(v[2])
		dst[r] = int32((64*e0 + 64*e1 + round) >> shift)
		dst[2*Size4+r] = int32((64*e0 - 64*e1 + round) >> shift)
		dst[Size4+r] = int32((83*o0 + 36*o1 + round) >> shift)
		dst[3*Size4+r] = int32((36*o0 - 83*o1 + round) >> shift)
	}
}

func inverse4(src []int32, dst *[Size4 * Size4]int32, shift uint) {
	src = src[:Size4*Size4]
	round := int64(1) << (shift - 1)
	for r := 0; r < Size4; r++ {
		v := src[r*Size4 : r*Size4+Size4 : r*Size4+Size4]
		o0 := 83*int64(v[1]) + 36*int64(v[3])
		o1 := 36*int64(v[1]) - 83*int64(v[3])
		e0 := 64*int64(v[0]) + 64*int64(v[2])
		e1 := 64*int64(v[0]) - 64*int64(v[2])
		dst[r] = int32((e0 + o0 + round) >> shift)
		dst[Size4+r] = int32((e1 + o1 + round) >> shift)
		dst[2*Size4+r] = int32((e1 - o1 + round) >> shift)
		dst[3*Size4+r] = int32((e0 - o0 + round) >> shift)
	}
}

func forward8(src []int32, dst *[Size8 * Size8]int32, shift uint) {
	src = src[:Size8*Size8]
	round := int64(1) << (shift - 1)
	for r := 0; r < Size8; r++ {
		v := src[r*Size8 : r*Size8+Size8 : r*Size8+Size8]
		var e, o [4]int64
		for k := 0; k < 4; k++ {
			e[k] = int64(v[k]) + int64(v[7-k])
			o[k] = int64(v[k]) - int64(v[7-k])
		}
		ee0, eo0 := e[0]+e[3], e[0]-e[3]
		ee1, eo1 := e[1]+e[2], e[1]-e[2]
		dst[r] = int32((64*ee0 + 64*ee1 + round) >> shift)
		dst[4*Size8+r] = int32((64*ee0 - 64*ee1 + round) >> shift)
		dst[2*Size8+r] = int32((83*eo0 + 36*eo1 + round) >> shift)
		dst[6*Size8+r] = int32((36*eo0 - 83*eo1 + round) >> shift)
		dst[Size8+r] = int32((89*o[0] + 75*o[1] + 50*o[2] + 18*o[3] + round) >> shift)
		dst[3*Size8+r] = int32((75*o[0] - 18*o[1] - 89*o[2] - 50*o[3] + round) >> shift)
		dst[5*Size8+r] = int32((50*o[0] - 89*o[1] + 18*o[2] + 75*o[3] + round) >> shift)
		dst[7*Size8+r] = int32((18*o[0] - 50*o[1] + 75*o[2] - 89*o[3] + round) >> shift)
	}
}

func inverse8(src []int32, dst *[Size8 * Size8]int32, shift uint) {
	src = src[:Size8*Size8]
	round := int64(1) << (shift - 1)
	for r := 0; r < Size8; r++ {
		v := src[r*Size8 : r*Size8+Size8 : r*Size8+Size8]
		v1, v3, v5, v7 := int64(v[1]), int64(v[3]), int64(v[5]), int64(v[7])
		o := [4]int64{
			89*v1 + 75*v3 + 50*v5 + 18*v7,
			75*v1 - 18*v3 - 89*v5 - 50*v7,
			50*v1 - 89*v3 + 18*v5 + 75*v7,
			18*v1 - 50*v3 + 75*v5 - 89*v7,
		}
		eo0 := 83*int64(v[2]) + 36*int64(v[6])
		eo1 := 36*int64(v[2]) - 83*int64(v[6])
		ee0 := 64*int64(v[0]) + 64*int64(v[4])
		ee1 := 64*int64(v[0]) - 64*int64(v[4])
		e := [4]int64{ee0 + eo0, ee1 + eo1, ee1 - eo1, ee0 - eo0}
		for k := 0; k < 4; k++ {
			dst[k*Size8+r] = int32((e[k] + o[k] + round) >> shift)
			dst[(7-k)*Size8+r] = int32((e[k] - o[k] + round) >> shift)
		}
	}
}

func checkBlock(n int, src, dst []int32) error {
	if n != Size4 && n != Size8 {
		return fmt.Errorf("transform: unsupported size %d", n)
	}
	if len(src) != n*n || len(dst) != n*n {
		return fmt.Errorf("transform: block length src=%d dst=%d, want %d", len(src), len(dst), n*n)
	}
	return nil
}

// MinQP and MaxQP bound the HEVC quantization parameter range.
const (
	MinQP = 0
	MaxQP = 51
)

// Qstep returns the HEVC quantization step for a QP: 2^((QP−4)/6).
// QP 4 → 1.0; +6 QP doubles the step.
func Qstep(qp int) float64 {
	return math.Pow(2, float64(qp-4)/6)
}

// Quantizer quantizes transform coefficients of one block size at one QP.
type Quantizer struct {
	n      int
	qp     int
	scaled float64 // Qstep × forward gain
	// deadzone shifts the rounding point: 0.5 is plain rounding; HEVC uses
	// ≈1/3 for intra and ≈1/6 for inter. Smaller values bias levels toward
	// zero (better rate, slightly worse distortion).
	deadzone float64
}

// NewQuantizer builds a quantizer for block size n (4 or 8) at qp.
// intra selects the intra deadzone.
func NewQuantizer(n, qp int, intra bool) (*Quantizer, error) {
	if n != Size4 && n != Size8 {
		return nil, fmt.Errorf("transform: unsupported size %d", n)
	}
	if qp < MinQP || qp > MaxQP {
		return nil, fmt.Errorf("transform: QP %d outside [%d, %d]", qp, MinQP, MaxQP)
	}
	// HEVC rounding offsets: ≈1/3 of a step for intra, ≈1/6 for inter.
	dz := 1.0 / 6
	if intra {
		dz = 1.0 / 3
	}
	return &Quantizer{n: n, qp: qp, scaled: Qstep(qp) * forwardGain(n), deadzone: dz}, nil
}

// QP returns the quantizer's QP.
func (q *Quantizer) QP() int { return q.qp }

// ZeroSADBound returns a residual-SAD bound under which every transform
// coefficient of the block is guaranteed to quantize to zero, enabling the
// encoder's skip fast path without changing the bitstream.
//
// Derivation: the orthonormal-equivalent coefficient magnitude is bounded
// by maxAmp·SAD where maxAmp is the largest 2-D basis amplitude (1/4 for
// 8×8, 1/2 for 4×4); the integer transform scales it by the forward gain g,
// and a level is zero when |c| < g·Qstep·(1 − deadzone). Hence
// SAD < Qstep·(1 − dz)/maxAmp suffices.
func (q *Quantizer) ZeroSADBound() int64 {
	maxAmp := 0.25
	if q.n == Size4 {
		maxAmp = 0.5
	}
	return int64(Qstep(q.qp) * (1 - q.deadzone) / maxAmp)
}

// Quantize maps coefficients to levels: level = sign·floor(|c|/qs + dz).
// dst and src may alias.
func (q *Quantizer) Quantize(src, dst []int32) error {
	if len(src) != q.n*q.n || len(dst) != q.n*q.n {
		return fmt.Errorf("transform: quantize length src=%d dst=%d, want %d", len(src), len(dst), q.n*q.n)
	}
	for i, c := range src {
		neg := c < 0
		a := float64(c)
		if neg {
			a = -a
		}
		level := int32(a/q.scaled + q.deadzone)
		if neg {
			level = -level
		}
		dst[i] = level
	}
	return nil
}

// Dequantize maps levels back to reconstructed coefficients.
// dst and src may alias.
func (q *Quantizer) Dequantize(src, dst []int32) error {
	if len(src) != q.n*q.n || len(dst) != q.n*q.n {
		return fmt.Errorf("transform: dequantize length src=%d dst=%d, want %d", len(src), len(dst), q.n*q.n)
	}
	for i, l := range src {
		dst[i] = int32(math.Round(float64(l) * q.scaled))
	}
	return nil
}
