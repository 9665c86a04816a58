package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"merlin/internal/buflib"
	"merlin/internal/geom"
	"merlin/internal/net"
	"merlin/internal/rc"
	"merlin/internal/tree"
)

// The golden corpus pins the DP's answers bit for bit: for seeded nets of
// 4–7 sinks under both §III.1 goals, plus 4–5 sinks under the relaxed
// construction (MaxInternalChildren = 2, two inner groups per sub-problem),
// it records the float64 bits of the
// chosen solution, the loop count, the final order, a canonical hash of the
// built tree and a hash of the served source frontier in storage order. Any
// change to internal/core or internal/curve that claims "same behaviour"
// must leave testdata/golden/corpus.json untouched. Regenerate only on a
// deliberate behaviour change, and say why:
//
//	go test ./internal/core -run TestGoldenCorpus -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/corpus.json from the current engine")

const goldenPath = "testdata/golden/corpus.json"

// goldenCase is one recorded run. Floats are stored as their IEEE-754 bits
// in hex so the comparison is exact and the file diff shows every bit.
type goldenCase struct {
	Name     string `json:"name"`
	Req      string `json:"req_bits"`
	Area     string `json:"area_bits"`
	Load     string `json:"load_bits"`
	ReqAt    string `json:"req_at_driver_bits"`
	Loops    int    `json:"loops"`
	Order    []int  `json:"final_order"`
	Tree     string `json:"tree_sha256"`
	Frontier string `json:"frontier_sha256"`
}

// goldenNet builds one corpus net with the Flow III profile the service
// uses for small nets (flows.ProfileFor, n ≤ 10).
func goldenNet(sinks int, seed int64) (*net.Net, []geom.Point, *buflib.Library, rc.Technology, Options) {
	tech := rc.Default035()
	lib := buflib.Default035().Small(6)
	nt := net.Generate(net.DefaultGenSpec(sinks, seed), tech, lib.Driver)
	cands := geom.ReducedHanan(nt.Terminals(), 12)
	opts := DefaultOptions()
	opts.Alpha, opts.MaxSols, opts.MaxLoops = 6, 6, 6
	return nt, cands, lib, tech, opts
}

func bitsHex(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// treeHash is a canonical digest of a buffered routing tree: a pre-order
// walk writing each node's kind, position, sink index, buffer name and child
// count.
func treeHash(t *tree.Tree) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		put(int64(n.Kind))
		put(n.Pos.X)
		put(n.Pos.Y)
		put(int64(n.SinkIdx))
		h.Write([]byte(n.Buffer.Name))
		put(int64(len(n.Children)))
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return hex.EncodeToString(h.Sum(nil))
}

// runGoldenNet solves one corpus net under variant I, then — on the same
// engine, as the service's engine cache does for a new required-time floor —
// under variant II with a floor 5% below the variant I optimum, so the
// area-minimizing search has room to trade required time for area.
// maxInternal is Options.MaxInternalChildren; 2 names the case "-relaxed".
func runGoldenNet(t *testing.T, sinks int, seed int64, maxInternal int) []goldenCase {
	t.Helper()
	nt, cands, lib, tech, opts := goldenNet(sinks, seed)
	opts.MaxInternalChildren = maxInternal
	suffix := ""
	if maxInternal >= 2 {
		suffix = "-relaxed"
	}
	en := NewEngine(nt, cands, lib, tech, opts)
	var out []goldenCase
	var maxReq float64 // the variant I optimum
	for _, mode := range []GoalMode{GoalMaxReq, GoalMinArea} {
		name := fmt.Sprintf("n%d-s%d-maxreq%s", sinks, seed, suffix)
		if mode == GoalMinArea {
			en.Opts.Goal = Goal{Mode: GoalMinArea, ReqFloor: maxReq - 0.05*math.Abs(maxReq)}
			name = fmt.Sprintf("n%d-s%d-minarea%s", sinks, seed, suffix)
		}
		res, err := en.Merlin(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fh := sha256.New()
		var buf [8]byte
		for _, s := range res.Frontier.Sols {
			for _, f := range []float64{s.Load, s.Req, s.Area} {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
				fh.Write(buf[:])
			}
		}
		out = append(out, goldenCase{
			Name:     name,
			Req:      bitsHex(res.Solution.Req),
			Area:     bitsHex(res.Solution.Area),
			Load:     bitsHex(res.Solution.Load),
			ReqAt:    bitsHex(res.ReqAtDriverInput),
			Loops:    res.Loops,
			Order:    res.FinalOrder,
			Tree:     treeHash(res.Tree),
			Frontier: hex.EncodeToString(fh.Sum(nil)),
		})
		maxReq = res.ReqAtDriverInput
	}
	return out
}

// TestGoldenCorpus re-solves every corpus net and demands bit-identical
// answers. It also runs under -tags merlin_invariants (make invariants).
func TestGoldenCorpus(t *testing.T) {
	var got []goldenCase
	for sinks := 4; sinks <= 7; sinks++ {
		for _, seed := range []int64{1, 2, 3} {
			got = append(got, runGoldenNet(t, sinks, seed, 1)...)
		}
	}
	// Nothing else pins the relaxed construction's answers.
	for sinks := 4; sinks <= 5; sinks++ {
		for _, seed := range []int64{1, 2, 3} {
			got = append(got, runGoldenNet(t, sinks, seed, 2)...)
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(got), goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read corpus (regenerate with -update): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("corpus has %d cases, run produced %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if fmt.Sprint(w) != fmt.Sprint(g) {
			t.Errorf("%s: behaviour changed\n got %+v\nwant %+v", w.Name, g, w)
		}
	}
}
