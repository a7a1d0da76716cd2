package transform

import (
	"fmt"
	"math"
	"testing"
)

// This file holds the reference the butterfly stages are tested against:
// the 2-D transform as two plain matrix products of the HEVC core matrices.

// m4 is the HEVC 4×4 core transform matrix.
var m4 = [4][4]int32{
	{64, 64, 64, 64},
	{83, 36, -36, -83},
	{64, -64, -64, 64},
	{36, -83, 83, -36},
}

// m8 is the HEVC 8×8 core transform matrix.
var m8 = [8][8]int32{
	{64, 64, 64, 64, 64, 64, 64, 64},
	{89, 75, 50, 18, -18, -50, -75, -89},
	{83, 36, -36, -83, -83, -36, 36, 83},
	{75, -18, -89, -50, 50, 89, 18, -75},
	{64, -64, -64, 64, 64, -64, -64, 64},
	{50, -89, 18, 75, -75, -18, 89, -50},
	{36, -83, 83, -36, -36, 83, -83, 36},
	{18, -50, 75, -89, 89, -75, 50, -18},
}

// refForward and refInverse are Forward and Inverse computed with
// mulStage.
func refForward(n int, src []int32) []int32 {
	s1, s2 := shifts(n)
	tmp, dst := make([]int32, n*n), make([]int32, n*n)
	mulStage(n, src, tmp, s1, false)
	mulStage(n, tmp, dst, s2, false)
	return dst
}

func refInverse(n int, src []int32) []int32 {
	tmp, dst := make([]int32, n*n), make([]int32, n*n)
	mulStage(n, src, tmp, 7, true)
	mulStage(n, tmp, dst, 12, true)
	return dst
}

// mulStage performs one separable stage: for each row r of src (treated as
// a vector v), dst column r receives M·v (forward) or Mᵀ·v (inverse), with
// rounding right-shift.
func mulStage(n int, src, dst []int32, shift uint, inverse bool) {
	round := int64(1) << (shift - 1)
	for r := 0; r < n; r++ {
		v := src[r*n : r*n+n]
		for k := 0; k < n; k++ {
			var acc int64
			for i := 0; i < n; i++ {
				var coeff int32
				if inverse {
					coeff = matAt(n, i, k)
				} else {
					coeff = matAt(n, k, i)
				}
				acc += int64(coeff) * int64(v[i])
			}
			dst[k*n+r] = int32((acc + round) >> shift)
		}
	}
}

// matAt returns the (row, col) entry of the size-n core matrix.
func matAt(n, row, col int) int32 {
	if n == Size4 {
		return m4[row][col]
	}
	return m8[row][col]
}

// checkMatchesReference runs Forward and Inverse on block (n*n values)
// and reports the first coefficient that differs from the reference.
func checkMatchesReference(n int, block []int32) error {
	got := make([]int32, n*n)
	for _, stage := range []struct {
		name string
		run  func(int, []int32, []int32) error
		ref  func(int, []int32) []int32
	}{{"Forward", Forward, refForward}, {"Inverse", Inverse, refInverse}} {
		if err := stage.run(n, block, got); err != nil {
			return err
		}
		want := stage.ref(n, block)
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("%s n=%d: coefficient %d = %d, reference %d (input %v)", stage.name, n, i, got[i], want[i], block)
			}
		}
	}
	return nil
}

// TestTransformMatchesReference compares the butterfly stages with the
// matrix-product reference on seeded blocks over the residual range, the
// dequantized-level range and the full int32 range, plus the extremes.
func TestTransformMatchesReference(t *testing.T) {
	ranges := []struct {
		name string
		fill func(s uint64) int32
	}{
		{"residual", func(s uint64) int32 { return int32(s%511) - 255 }},
		{"coefficient", func(s uint64) int32 { return int32(s%(1<<20)) - 1<<19 }},
		{"int32", func(s uint64) int32 { return int32(uint32(s)) }},
		{"extremes", func(s uint64) int32 {
			return [...]int32{math.MinInt32, math.MaxInt32, 0, -1}[s%4]
		}},
	}
	for _, n := range []int{Size4, Size8} {
		for _, rg := range ranges {
			s := uint64(n)*0x9E3779B97F4A7C15 + 1
			for trial := 0; trial < 2000; trial++ {
				block := make([]int32, n*n)
				for i := range block {
					s ^= s << 13
					s ^= s >> 7
					s ^= s << 17
					block[i] = rg.fill(s)
				}
				if err := checkMatchesReference(n, block); err != nil {
					t.Fatalf("%s trial %d: %v", rg.name, trial, err)
				}
			}
		}
	}
}

// FuzzTransformMatchesReference feeds arbitrary int32 blocks of both sizes
// to Forward and Inverse and compares them with the reference.
func FuzzTransformMatchesReference(f *testing.F) {
	f.Add(false, []byte{0x01, 0x00, 0x00, 0x80})
	f.Add(true, []byte{0xff, 0xff, 0xff, 0x7f, 0x00, 0x00, 0x00, 0x80})
	f.Fuzz(func(t *testing.T, eight bool, data []byte) {
		n := Size4
		if eight {
			n = Size8
		}
		block := make([]int32, n*n)
		for i := range block {
			if 4*i+4 > len(data) {
				break
			}
			block[i] = int32(uint32(data[4*i]) | uint32(data[4*i+1])<<8 | uint32(data[4*i+2])<<16 | uint32(data[4*i+3])<<24)
		}
		if err := checkMatchesReference(n, block); err != nil {
			t.Fatal(err)
		}
	})
}
