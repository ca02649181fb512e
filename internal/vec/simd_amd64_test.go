//go:build amd64 && !noasm

package vec

// wideGemmTileCases is the AVX-512F tile, skipped where the host cannot
// run it.
func wideGemmTileCases() []gemmTileCase {
	c := gemmTileCase{g: &gemmWide}
	if !hasAVX512F {
		c.skip = "CPU lacks AVX-512F, or the OS has not enabled its zmm state"
	}
	return []gemmTileCase{c}
}
