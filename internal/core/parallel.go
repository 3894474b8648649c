package core

import (
	"context"

	"bristleblocks/internal/pool"
)

// poolSize and runIndexed delegate to the shared internal/pool package
// (Pass 3's combo race sizes its pool there too, from the pads package,
// which cannot import core).

func poolSize(parallelism, items int) int {
	return pool.Size(parallelism, items)
}

func runIndexed(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	return pool.RunIndexed(ctx, workers, n, fn)
}
