package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"netout/internal/hin"
	"netout/internal/xerr"
)

// Run is Execute's gate around other work: fn gets the engine's graph and a
// handle of its own, its error is Run's and a panic in it comes back as a
// *PanicError; shardnet's server counts each by its outcome. A closed pool
// never calls fn.
func TestServePoolRunCountsLikeExecute(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(7)))
	pool := NewServePool(NewEngine(g), ServeOptions{Workers: 1, MaxQueue: 1})
	ctx := context.Background()
	err := pool.Run(ctx, func(_ context.Context, got *hin.Graph, mat *Materializer) error {
		if got != g || mat == nil {
			t.Errorf("fn got graph %p and handle %v, want %p and one", got, mat, g)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
	refused := xerr.New(xerr.InvalidArgument, "refused")
	if err := pool.Run(ctx, func(context.Context, *hin.Graph, *Materializer) error { return refused }); !errors.Is(err, refused) {
		t.Fatalf("Run = %v, want fn's error", err)
	}
	if err := pool.Run(ctx, func(context.Context, *hin.Graph, *Materializer) error { panic("boom") }); !IsPanicError(err) {
		t.Fatalf("Run = %v, want a *PanicError", err)
	}
	pool.Close()
	ran := false
	err = pool.Run(ctx, func(context.Context, *hin.Graph, *Materializer) error { ran = true; return nil })
	if !errors.Is(err, ErrPoolClosed) || ran {
		t.Fatalf("Run on a closed pool = %v (fn ran: %v), want ErrPoolClosed", err, ran)
	}
}
