package main

import (
	"slices"
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
