package main

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"xymon/internal/cluster"
	"xymon/internal/core"
	"xymon/internal/webgen"
	"xymon/pubsub"
)

func TestParseBlocks(t *testing.T) {
	got := parseBlocks(" a:1, ,b:2 ,")
	if len(got) != 2 || got[0] != "a:1" || got[1] != "b:2" {
		t.Errorf("parseBlocks = %v", got)
	}
	if parseBlocks("") != nil {
		t.Error("empty input should yield nil")
	}
}

// TestLoadThenMatch loads a synthetic base onto two in-process blocks and
// holds the cluster's answers to a local matcher over the same base.
func TestLoadThenMatch(t *testing.T) {
	var servers []*cluster.Server
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := cluster.ServeDynamic("127.0.0.1:0", nil)
		if err != nil {
			t.Fatalf("ServeDynamic: %v", err)
		}
		defer srv.Close()
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	blocks := strings.Join(addrs, ",")
	if err := runLoad([]string{"-blocks", blocks, "-c", "2000", "-a", "500", "-m", "3", "-seed", "9"}); err != nil {
		t.Fatalf("runLoad: %v", err)
	}
	if total := servers[0].Len() + servers[1].Len(); total != 2000 {
		t.Errorf("total complex events across blocks = %d, want 2000", total)
	}
	if err := runMatch([]string{"-blocks", blocks, "1,2,3"}); err != nil {
		t.Errorf("runMatch: %v", err)
	}

	// The same seed and shape draw the same base; the documents follow it.
	w := webgen.GenEventWorkload(9, 500, 2000, 3, 60, 50)
	local := core.NewMatcher()
	if err := w.Load(local.Add); err != nil {
		t.Fatal(err)
	}
	client, err := pubsub.Dial(addrs...)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	matched := 0
	for _, doc := range w.Docs {
		got, err := client.Match(doc)
		if err != nil {
			t.Fatalf("Match: %v", err)
		}
		want := local.Match(doc)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("Match(%v) = %v, local matcher %v", doc, got, want)
		}
		matched += len(got)
	}
	if matched == 0 {
		t.Error("no document matched anything: the comparison proved nothing")
	}
}

func TestMatchRejectsBadArgs(t *testing.T) {
	if err := runMatch([]string{"-blocks", ""}); err == nil {
		t.Error("match without blocks should fail")
	}
	if err := runBench([]string{"-blocks", ""}); err == nil {
		t.Error("bench without blocks should fail")
	}
	if err := runLoad([]string{"-blocks", ""}); err == nil {
		t.Error("load without blocks should fail")
	}
	if err := runServe([]string{"-addr", "127.0.0.1:0", "block0.xyc"}); err == nil {
		t.Error("serve with a snapshot file should fail")
	}
}

// TestCoordinatedWorkflow runs the workflow of the command's header in
// process: a coordinator at R = 2, two blocks joined to it, load and
// match through -blocks, then a third block joined and the same match
// again through the same two addresses.
func TestCoordinatedWorkflow(t *testing.T) {
	coord, err := cluster.NewCoord(t.TempDir(), 2)
	if err != nil {
		t.Fatalf("NewCoord: %v", err)
	}
	defer coord.Close()
	if err := coord.ServeCoord("127.0.0.1:0"); err != nil {
		t.Fatalf("ServeCoord: %v", err)
	}
	join := func() *cluster.Server {
		srv, err := cluster.ServeDynamic("127.0.0.1:0", nil)
		if err != nil {
			t.Fatalf("ServeDynamic: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		if err := cluster.JoinCluster(coord.Addr(), srv.Addr()); err != nil {
			t.Fatalf("JoinCluster: %v", err)
		}
		return srv
	}
	a, b := join(), join()
	blocks := a.Addr() + "," + b.Addr()
	if err := runLoad([]string{"-blocks", blocks, "-c", "2000", "-a", "500", "-m", "3", "-seed", "9"}); err != nil {
		t.Fatalf("runLoad: %v", err)
	}
	if a.Len() != 2000 || b.Len() != 2000 {
		t.Fatalf("blocks hold %d and %d subscriptions, want 2000 each at R = 2", a.Len(), b.Len())
	}

	// The document is the first five subscriptions' events together.
	w := webgen.GenEventWorkload(9, 500, 2000, 3, 1, 1)
	local := core.NewMatcher()
	if err := w.Load(local.Add); err != nil {
		t.Fatal(err)
	}
	var doc []core.Event
	var list []string
	for _, events := range w.Complex[:5] {
		for _, e := range events {
			doc = append(doc, e)
			list = append(list, strconv.Itoa(int(e)))
		}
	}
	want := local.Match(core.Canonical(doc))
	slices.Sort(want)
	wantOut := fmt.Sprintf("%d complex events matched: %v\n", len(want), want)
	match := func() {
		t.Helper()
		out, err := stdoutOf(func() error {
			return runMatch([]string{"-blocks", blocks, strings.Join(list, ",")})
		})
		if err != nil {
			t.Fatalf("runMatch: %v", err)
		}
		if out != wantOut {
			t.Fatalf("runMatch printed %q, want %q", out, wantOut)
		}
	}
	match()

	c := join()
	if c.Len() == 0 {
		t.Fatal("the third block received no subscriptions")
	}
	if total := a.Len() + b.Len() + c.Len(); total != 4000 {
		t.Fatalf("blocks hold %d subscriptions between them, want 4000 at R = 2", total)
	}
	match()
}

// stdoutOf runs f with os.Stdout captured and returns what it printed.
func stdoutOf(f func() error) (string, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return "", err
	}
	stdout := os.Stdout
	os.Stdout = w
	ferr := f()
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	r.Close()
	if ferr != nil {
		return string(out), ferr
	}
	return string(out), err
}
