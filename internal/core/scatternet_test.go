package core

// The remote half of the shard tier, exercised at the coordinator seam:
// RemoteShard fakes that execute via ServeShardRequest (a real remote's
// code path, minus the socket) with failure injection on top. The network
// transport's own suite (internal/shardnet) covers the codec and real TCP;
// these tests pin the coordinator-side contracts — bit-identical merging,
// the gather loop's protocol-version gate, and the widened exact-prefix
// degradation rule for remote loss modes. All tests here must pass under
// `go test -race -cpu 1,4`.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/xerr"
)

// fakeRemote implements RemoteShard in-process over its own materializer
// (each fake is "another process" as far as sharing goes). intercept, when
// set, replaces the call entirely; mutate, when set, edits the reply before
// it returns — both simulate remote misbehavior. A reply carries only what
// the wire ships (Err/Code/Kind), so the coordinator exercises its
// xerr.FromWire reconstruction.
type fakeRemote struct {
	addr      string
	serve     func(ctx context.Context, req *ShardRequest, b *ShardBroadcast) *ShardResponse
	intercept func(req *ShardRequest) (*ShardResponse, error)
	mutate    func(resp *ShardResponse)
}

func (f *fakeRemote) Addr() string { return f.addr }

func (f *fakeRemote) Call(ctx context.Context, req *ShardRequest, b *ShardBroadcast) (*ShardResponse, error) {
	if f.intercept != nil {
		return f.intercept(req)
	}
	resp := f.serve(ctx, req, b)
	if f.mutate != nil {
		f.mutate(resp)
	}
	return resp, nil
}

// newFakeFleet builds n healthy fake remotes over g, each with a private
// materializer, mirroring n shard server processes hosting the network.
func newFakeFleet(t *testing.T, g *hin.Graph, n int) []RemoteShard {
	t.Helper()
	return fakeFleetOf(g, n, NewBaseline)
}

// fakeFleetOf is newFakeFleet with the shards' materializer chosen by the
// caller.
func fakeFleetOf(g *hin.Graph, n int, newMat func(*hin.Graph) *Materializer) []RemoteShard {
	remotes := make([]RemoteShard, n)
	for i := range remotes {
		mat := newMat(g)
		remotes[i] = &fakeRemote{
			addr: fmt.Sprintf("fake-shard-%d", i),
			serve: func(ctx context.Context, req *ShardRequest, b *ShardBroadcast) *ShardResponse {
				return ServeShardRequest(ctx, g, mat, req, b)
			},
		}
	}
	return remotes
}

// Scattering over remote shards is bit-identical to unsharded execution for
// every measure and combination — the same contract the in-process tier
// pins, now crossing the RemoteShard seam with the broadcast reference
// reduction instead of shared scorer pointers.
func TestRemoteShardsBitIdentical(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(21)))
	queries := []string{
		`FIND OUTLIERS FROM author JUDGED BY author.paper.venue;`,
		`FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 3;`,
		`FIND OUTLIERS FROM author JUDGED BY author.paper.venue : 2, author.paper.term : 1;`,
	}
	for _, m := range []Measure{MeasureNetOut, MeasurePathSim, MeasureCosSim} {
		for _, comb := range []Combination{CombineAverage, CombineConcat} {
			plain := NewEngine(g, WithMeasure(m), WithCombination(comb))
			for _, n := range []int{1, 2, 3} {
				eng := NewEngine(g, WithMeasure(m), WithCombination(comb),
					WithRemoteShards(newFakeFleet(t, g, n)...))
				for _, src := range queries {
					want, err1 := plain.Execute(src)
					got, err2 := eng.Execute(src)
					if err1 != nil || err2 != nil {
						t.Fatalf("measure %v remotes=%d %q: %v / %v", m, n, src, err1, err2)
					}
					if !bitIdentical(want, got) {
						t.Fatalf("measure %v combine %v remotes=%d diverges on %q:\nunsharded %+v\nremote    %+v",
							m, comb, n, src, want.Entries, got.Entries)
					}
					for i, st := range got.Trace.Shards {
						if st.Addr != fmt.Sprintf("fake-shard-%d", i) {
							t.Fatalf("Shards[%d].Addr = %q", i, st.Addr)
						}
					}
				}
				eng.Close()
			}
			plain.Close()
		}
	}
}

// Remote shards take precedence over local ranges when both are configured.
func TestRemoteShardsWinOverLocal(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(22)))
	eng := NewEngine(g, WithQueryParallelism(5), WithRemoteShards(newFakeFleet(t, g, 2)...))
	defer eng.Close()
	res, err := eng.Execute(faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Shards) != 2 || res.Trace.Shards[0].Addr == "" {
		t.Fatalf("accounting = %+v, want 2 addressed remote shards", res.Trace.Shards)
	}
}

// Regression (this PR): the gather loop must validate ShardResponse.Version.
// A reply stamped with a foreign protocol revision — a mixed-revision fleet
// — fails the query with a typed INTERNAL skew error naming the shard and
// its address, never merges.
func TestRemoteShardVersionSkewFailsQuery(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(23)))
	remotes := newFakeFleet(t, g, 2)
	remotes[1].(*fakeRemote).mutate = func(resp *ShardResponse) {
		resp.Version = ShardProtocolVersion + 1
	}
	eng := NewEngine(g, WithRemoteShards(remotes...))
	defer eng.Close()
	_, err := eng.Execute(faultQuery)
	if err == nil {
		t.Fatal("forged protocol version merged silently; want a skew failure")
	}
	if xerr.CodeOf(err) != xerr.Internal {
		t.Fatalf("skew error code = %v, want INTERNAL (%v)", xerr.CodeOf(err), err)
	}
	for _, frag := range []string{"protocol skew", "shard 1", "fake-shard-1",
		fmt.Sprintf("version %d", ShardProtocolVersion+1)} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("skew error %q does not name %q", err, frag)
		}
	}
}

// A shard server refuses a request stamped with a foreign version — the
// server-side half of the mutual skew gate.
func TestServeShardRequestRejectsForeignVersion(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(24)))
	req := &ShardRequest{Version: ShardProtocolVersion - 1, Measure: MeasureNetOut, Combine: CombineConcat}
	resp := ServeShardRequest(context.Background(), g, NewBaseline(g), req, &ShardBroadcast{})
	if resp.Err == "" || resp.Code != xerr.Internal || !strings.Contains(resp.Err, "skew") {
		t.Fatalf("foreign-version request answered %+v, want a typed skew rejection", resp)
	}
	if resp.Version != ShardProtocolVersion {
		t.Fatalf("rejection stamped version %d, want the server's own %d", resp.Version, ShardProtocolVersion)
	}
}

// Input hygiene: a wire path the shard's schema cannot walk — none at all, a
// source or an interior type it lacks, a hop it forbids — is refused as
// INVALID_ARGUMENT before anything is scored, on every materializer. It used
// to come back as a recovered index panic (a defect, which the coordinator
// degrades to a silent Partial) or, for a foreign interior type, as a clean
// reply with every candidate skipped.
func TestServeShardRequestRejectsForeignPaths(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(25)))
	a, _ := g.Schema().TypeByName("author")
	v, _ := g.Schema().TypeByName("venue")
	cands := g.VerticesOfType(a)[:4]
	cache, err := NewCached(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for name, mat := range map[string]*Materializer{"baseline": NewBaseline(g), "cached": cache} {
		for label, p := range map[string]metapath.Path{
			"empty":          {},
			"foreign source": metapath.MustNew(0x7f, a),
			"foreign middle": metapath.MustNew(a, 0x7f, a),
			"forbidden hop":  metapath.MustNew(a, v),
		} {
			req := &ShardRequest{Version: ShardProtocolVersion, Measure: MeasureNetOut, Combine: CombineAverage,
				Weights: []float64{1}, Paths: []metapath.Path{p}, Candidates: cands}
			b := &ShardBroadcast{Stride: int32(g.NumVertices()), Refs: []ShardRefState{{}}}
			resp := ServeShardRequest(context.Background(), g, mat, req, b)
			if resp.Code != xerr.InvalidArgument || resp.Kind == xerr.KindDefect || resp.Done != 0 || len(resp.Skipped) != 0 {
				t.Errorf("%s, %s path: answered %+v, want INVALID_ARGUMENT with nothing scored", name, label, resp)
			}
		}
	}
}

// expectPrefixPartial runs q against eng expecting shard `lost` of n to have
// contributed nothing: Partial is true, the lost shard shows Done 0, and
// every surviving entry and skip is bit-identical to the unsharded run.
func expectPrefixPartial(t *testing.T, g *hin.Graph, eng *Engine, lost int) {
	t.Helper()
	want, err := NewEngine(g, WithMeasure(eng.measure)).Execute(faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantScore := make(map[int32]uint64, len(want.Entries))
	for _, e := range want.Entries {
		wantScore[int32(e.Vertex)] = math.Float64bits(e.Score)
	}
	res, err := eng.Execute(faultQuery)
	if err != nil {
		t.Fatalf("lost remote shard failed the query instead of degrading: %v", err)
	}
	if !res.Partial {
		t.Fatal("Partial = false after losing a remote shard")
	}
	covered := 0
	for i, st := range res.Trace.Shards {
		if i == lost {
			if st.Done != 0 || !st.Partial || st.Err == "" {
				t.Fatalf("lost shard accounting = %+v, want Done 0 with its classified error", st)
			}
			continue
		}
		if st.Partial || st.Done != st.Candidates {
			t.Fatalf("surviving shard %d accounting = %+v, want complete", i, st)
		}
		covered += st.Candidates
	}
	if got := len(res.Entries) + len(res.Skipped); got != covered {
		t.Fatalf("partial covers %d candidates, want the survivors' %d", got, covered)
	}
	for _, e := range res.Entries {
		bits, ok := wantScore[int32(e.Vertex)]
		if !ok {
			t.Fatalf("partial ranks %q, absent from the unsharded ranking", e.Name)
		}
		if bits != math.Float64bits(e.Score) {
			t.Fatalf("surviving score for %q = %x, want bit-identical %x", e.Name, math.Float64bits(e.Score), bits)
		}
	}
}

// Transport loss of one remote shard folds into the exact-prefix Partial
// contract under NetOut: the query completes, the survivors' scores are
// bit-identical to unsharded execution, and the lost shard's slice is
// accounted as not done.
func TestRemoteShardLossDegradesToExactPrefix(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(25)))
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"unavailable", xerr.New(xerr.Unavailable, "dial tcp: connection refused")},
		{"deadline", xerr.Interrupt(context.DeadlineExceeded)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			remotes := newFakeFleet(t, g, 3)
			remotes[1].(*fakeRemote).intercept = func(*ShardRequest) (*ShardResponse, error) {
				return nil, tc.err
			}
			eng := NewEngine(g, WithMeasure(MeasureNetOut), WithRemoteShards(remotes...))
			defer eng.Close()
			expectPrefixPartial(t, g, eng, 1)
		})
	}
}

// A shard replying with a classified failure degrades for the remote loss
// modes (admission shed, remote defect) and fails the query for plain
// INTERNAL errors and cancellation — the coordinator reconstructs each from
// the wire triple via xerr.FromWire and applies shardDegradable.
func TestRemoteShardReplyClassification(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(26)))
	replyWith := func(code xerr.Code, kind xerr.Kind) func(req *ShardRequest) (*ShardResponse, error) {
		return func(req *ShardRequest) (*ShardResponse, error) {
			return &ShardResponse{
				Version: ShardProtocolVersion,
				QueryID: req.QueryID,
				Shard:   req.Shard,
				Err:     "injected remote failure",
				Code:    code,
				Kind:    kind,
			}, nil
		}
	}
	t.Run("shed degrades", func(t *testing.T) {
		remotes := newFakeFleet(t, g, 2)
		remotes[0].(*fakeRemote).intercept = replyWith(xerr.ResourceExhausted, 0)
		eng := NewEngine(g, WithMeasure(MeasureNetOut), WithRemoteShards(remotes...))
		defer eng.Close()
		expectPrefixPartial(t, g, eng, 0)
	})
	t.Run("remote defect degrades", func(t *testing.T) {
		remotes := newFakeFleet(t, g, 2)
		remotes[1].(*fakeRemote).intercept = replyWith(xerr.Internal, xerr.KindDefect)
		eng := NewEngine(g, WithMeasure(MeasureNetOut), WithRemoteShards(remotes...))
		defer eng.Close()
		expectPrefixPartial(t, g, eng, 1)
	})
	t.Run("plain internal fails", func(t *testing.T) {
		remotes := newFakeFleet(t, g, 2)
		remotes[1].(*fakeRemote).intercept = replyWith(xerr.Internal, 0)
		eng := NewEngine(g, WithMeasure(MeasureNetOut), WithRemoteShards(remotes...))
		defer eng.Close()
		if _, err := eng.Execute(faultQuery); xerr.CodeOf(err) != xerr.Internal {
			t.Fatalf("plain remote INTERNAL returned %v, want the query to fail INTERNAL", err)
		}
	})
	t.Run("cancellation fails", func(t *testing.T) {
		remotes := newFakeFleet(t, g, 2)
		remotes[1].(*fakeRemote).intercept = func(*ShardRequest) (*ShardResponse, error) {
			return nil, xerr.Interrupt(context.Canceled)
		}
		eng := NewEngine(g, WithMeasure(MeasureNetOut), WithRemoteShards(remotes...))
		defer eng.Close()
		_, err := eng.Execute(faultQuery)
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled remote returned %v, want context.Canceled to fail the query", err)
		}
	})
	t.Run("loss under pathsim degrades", func(t *testing.T) {
		// A lost remote under PathSim leaves the survivors' exact scores, as
		// under NetOut: a candidate's score depends only on its own Φ and the
		// reduced reference side.
		remotes := newFakeFleet(t, g, 2)
		remotes[1].(*fakeRemote).intercept = func(*ShardRequest) (*ShardResponse, error) {
			return nil, xerr.New(xerr.Unavailable, "connection reset")
		}
		eng := NewEngine(g, WithMeasure(MeasurePathSim), WithRemoteShards(remotes...))
		defer eng.Close()
		expectPrefixPartial(t, g, eng, 1)
	})
}

// A remote returning (nil, nil) — a buggy client — synthesizes a classified
// UNAVAILABLE loss instead of a nil-dereference in the gather loop.
func TestRemoteShardNilReplySynthesizesLoss(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(27)))
	remotes := newFakeFleet(t, g, 2)
	remotes[0].(*fakeRemote).intercept = func(*ShardRequest) (*ShardResponse, error) {
		return nil, nil
	}
	eng := NewEngine(g, WithMeasure(MeasureNetOut), WithRemoteShards(remotes...))
	defer eng.Close()
	expectPrefixPartial(t, g, eng, 0)
}

// A panicking RemoteShard client is recovered into a defect loss on the
// struck shard only: the rest of the fleet's work survives as a Partial.
func TestRemoteShardClientPanicIsolated(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(28)))
	remotes := newFakeFleet(t, g, 2)
	remotes[0].(*fakeRemote).intercept = func(*ShardRequest) (*ShardResponse, error) {
		panic("client bug")
	}
	eng := NewEngine(g, WithMeasure(MeasureNetOut), WithRemoteShards(remotes...))
	defer eng.Close()
	expectPrefixPartial(t, g, eng, 0)
}
