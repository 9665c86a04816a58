package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"

	"merlin/internal/buflib"
	"merlin/internal/flows"
	"merlin/internal/geom"
	"merlin/internal/net"
	"merlin/internal/rc"
	"merlin/internal/service"
	"merlin/internal/tree"
)

// defaultSeed is the seed whose cold-solve answers are pinned in golden.json.
const defaultSeed = 1

// digest is the quality of one answer, as pinned for the default seed.
type digest struct {
	Sinks int     `json:"sinks"`
	Req   float64 `json:"req_ns"`
	Area  float64 `json:"area"`
	Bufs  int     `json:"bufs"`
}

//go:embed golden.json
var goldenJSON []byte

// golden holds the pinned digests of cold-solve nets 0..n-1 for defaultSeed.
var golden = func() []digest {
	var g struct {
		Seed int64    `json:"seed"`
		Nets []digest `json:"nets"`
	}
	if err := json.Unmarshal(goldenJSON, &g); err != nil || g.Seed != defaultSeed {
		panic(fmt.Sprintf("perfbench: golden.json is not the pinned digests of seed %d: %v", defaultSeed, err))
	}
	return g.Nets
}()

func digestOf(n *net.Net, r *service.RouteResponse) digest {
	return digest{Sinks: n.N(), Req: r.ReqAtDriverInputNS, Area: r.BufferArea, Bufs: r.NumBuffers}
}

// gates maps every library cell name to its model, for rebuilding trees.
var gates = func() map[string]rc.Gate {
	m := make(map[string]rc.Gate)
	for _, g := range buflib.Default035().Buffers {
		m[g.Name] = g
	}
	return m
}()

// checkAnswer verifies one answer on its own terms: it must be a full-tier
// Flow III answer, and the tree it carries, rebuilt and timed again, must
// cover every sink exactly once at the sink's position and reproduce the
// answer's required time, delay, buffer area, buffer count and wirelength
// bit for bit.
func checkAnswer(n *net.Net, r *service.RouteResponse) error {
	if r.Flow != "III" || r.Tier != "full" || r.Degraded {
		return fmt.Errorf("net %s: served by flow %q tier %q (degraded %v), want full-tier flow III", n.Name, r.Flow, r.Tier, r.Degraded)
	}
	if r.Tree == nil || r.Tree.Kind != tree.KindSource.String() {
		return fmt.Errorf("net %s: answer has no source-rooted tree", n.Name)
	}
	t := tree.New(n)
	for _, c := range r.Tree.Children {
		node, err := rebuild(n, c)
		if err != nil {
			return fmt.Errorf("net %s: %w", n.Name, err)
		}
		t.Root.AddChild(node)
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("net %s: %w", n.Name, err)
	}
	p := flows.ProfileFor(n.N())
	ev := t.Evaluate(p.Tech, p.Lib.Driver)
	if ev.ReqAtDriverInput != r.ReqAtDriverInputNS || ev.Delay != r.DelayNS || ev.BufferArea != r.BufferArea ||
		t.NumBuffers() != r.NumBuffers || ev.Wirelength != r.Wirelength {
		return fmt.Errorf("net %s: tree evaluates to req %v delay %v area %v bufs %d wl %d, answer says %v %v %v %d %d",
			n.Name, ev.ReqAtDriverInput, ev.Delay, ev.BufferArea, t.NumBuffers(), ev.Wirelength,
			r.ReqAtDriverInputNS, r.DelayNS, r.BufferArea, r.NumBuffers, r.Wirelength)
	}
	return nil
}

func rebuild(n *net.Net, w *service.TreeNode) (*tree.Node, error) {
	node := &tree.Node{Pos: geom.Point{X: w.X, Y: w.Y}}
	switch w.Kind {
	case tree.KindBuffer.String():
		g, ok := gates[w.Buffer]
		if !ok {
			return nil, fmt.Errorf("unknown buffer cell %q", w.Buffer)
		}
		node.Kind, node.Buffer = tree.KindBuffer, g
	case tree.KindSteiner.String():
		node.Kind = tree.KindSteiner
	case tree.KindSink.String():
		if w.Sink == nil || *w.Sink < 0 || *w.Sink >= n.N() || n.Sinks[*w.Sink].Pos != node.Pos {
			return nil, fmt.Errorf("sink node at %v does not name a sink at that position", node.Pos)
		}
		node.Kind, node.SinkIdx = tree.KindSink, *w.Sink
	default:
		return nil, fmt.Errorf("unexpected %q node below the source", w.Kind)
	}
	for _, c := range w.Children {
		child, err := rebuild(n, c)
		if err != nil {
			return nil, err
		}
		node.AddChild(child)
	}
	return node, nil
}

// sameAnswer reports whether two answers for one net agree in everything but
// the fields that describe the serving of it (trace id, cache flag, runtime).
func sameAnswer(a, b *service.RouteResponse) bool {
	x, y := answerBytes(a), answerBytes(b)
	return x != nil && bytes.Equal(x, y)
}

// answerBytes is the JSON of an answer without its serving fields, or nil
// when it cannot be encoded (a NaN), which matches nothing.
func answerBytes(r *service.RouteResponse) []byte {
	c := *r
	c.TraceID, c.Cached, c.RuntimeMS = "", false, 0
	b, err := json.Marshal(&c)
	if err != nil {
		return nil
	}
	return b
}
