//go:build noasm || !amd64

package vec

// wideGemmTileCases: builds other than amd64 assembly have only the base
// tile.
func wideGemmTileCases() []gemmTileCase { return nil }
