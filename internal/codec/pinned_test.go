package codec

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/medgen"
	"repro/internal/motion"
	"repro/internal/tiling"
	"repro/internal/video"
)

// pinnedDigests are the per-frame output digests (frameDigest) of
// pinnedClip for each transform size. They pin the codec's exact output:
// a kernel rewrite that is meant to be bit-exact must leave them alone,
// and a change that is meant to move encoder output must update them and
// say why.
var pinnedDigests = map[int][]string{
	4: {
		"d46b342a08e4b05e", "0c5e37a3d9138936", "6fbac965962f6a09", "b18a5dee6d865054",
		"3dba6d05effd658f", "4f56b506601226b5", "7fb27f202c26d6e4", "184983049da42a33",
	},
	8: {
		"2e9ce86aea701f97", "b8eccab704c464cb", "21030a2b51afc45d", "054620e5514cea36",
		"30712c39da8adb0c", "4847d30c4e8788f5", "7611ba5c35e60d34", "e493324bc4dc8345",
	},
}

// pinnedClip renders the clip the digests were taken on: a rotating chest
// study at 160×128 with sensor noise, one I-frame and seven P-frames.
func pinnedClip(t *testing.T) *video.Sequence {
	t.Helper()
	mc := medgen.Default()
	mc.Width, mc.Height = 160, 128
	mc.Frames = 8
	mc.Class = medgen.Chest
	mc.Motion = medgen.Rotate
	mc.RotateDegPerFrame = 1.5
	g, err := medgen.NewGenerator(mc)
	if err != nil {
		t.Fatal(err)
	}
	return g.Sequence()
}

// pinnedParams gives each of the four tiles its own QP and searcher, so
// the digests cover several searchers and the whole skip/transform range.
func pinnedParams() []TileParams {
	return []TileParams{
		{QP: 22, Searcher: motion.TZSearch{}, Window: 16},
		{QP: 27, Searcher: motion.Hexagon{Orientation: motion.HexRotating}, Window: 16},
		{QP: 32, Searcher: motion.Diamond{}, Window: 8},
		{QP: 37, Searcher: motion.OneAtATime{}, Window: 8},
	}
}

// frameDigest is FNV-64a over the frame's tile payloads followed by the
// rows of its reconstructed luma.
func frameDigest(bs *Bitstream, recon *video.Plane) string {
	h := fnv.New64a()
	for _, p := range bs.Tiles {
		h.Write(p)
	}
	for y := 0; y < recon.H; y++ {
		h.Write(recon.Pix[y*recon.Stride : y*recon.Stride+recon.W])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPinnedOutputBothTransformSizes encodes the pinned clip with 4×4 and
// 8×8 transforms, checks that the decoder reproduces the encoder's
// reconstruction frame by frame, and compares every frame's digest with
// the pinned value.
func TestPinnedOutputBothTransformSizes(t *testing.T) {
	seq := pinnedClip(t)
	grid := tiling.MustUniform(160, 128, 2, 2)
	for _, n := range []int{4, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			cfg := Config{Width: 160, Height: 128, FPS: 24, GOPSize: 8, IntraPeriod: 8, BlockSize: 16, TransformSize: n}
			enc, err := NewEncoder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := NewDecoder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for i, f := range seq.Frames {
				_, bs, err := enc.EncodeFrame(f, grid, pinnedParams())
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				out, err := dec.DecodeFrame(bs, grid)
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if sad, err := video.SAD(out.Y, enc.Reference().Y); err != nil || sad != 0 {
					t.Fatalf("frame %d: decoder differs from encoder reconstruction (SAD %d, err %v)", i, sad, err)
				}
				got = append(got, frameDigest(bs, enc.Reference().Y))
			}
			want := pinnedDigests[n]
			if len(want) != len(got) {
				t.Fatalf("pinned %d digests, encoded %d frames; got %q", len(want), len(got), got)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("frame %d digest %s, pinned %s", i, got[i], want[i])
				}
			}
		})
	}
}
