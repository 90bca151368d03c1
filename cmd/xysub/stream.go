// xysub stream — pull consumer for the durable notification
// change-stream (internal/stream). Where check/explain work on
// subscription source, this mode works on a running system's output:
// the reporter journal a System with Options.DurableDir writes under
// <DurableDir>/reporter, whose fired reports are the stream.
//
//	xysub stream tail   -dir DIR [-consumer NAME] [-max N] [-resync]
//	xysub stream replay -dir DIR [-from OFF] [-max N]
//	xysub stream commit -dir DIR -at OFF [-consumer NAME]
//
// tail reads from the consumer's durable cursor to the head, printing
// one record per line, committing the cursor after every batch; run it
// again to resume where it left off. replay reads from the oldest
// retained offset (or -from) without touching any cursor. commit
// repositions the cursor explicitly — the manual half of the
// truncation re-sync path. Records print as tab-separated
// offset, time, subscription, notification count, report XML.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"xymon/internal/stream"
)

// runStream dispatches one stream subcommand. It takes the argument
// list after "stream" plus explicit writers so tests drive it directly.
func runStream(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		streamUsage(stderr)
		return 2
	}
	mode, args := args[0], args[1:]
	fs := flag.NewFlagSet("stream "+mode, flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "stream directory (<DurableDir>/reporter)")
	consumer := fs.String("consumer", "xysub", "cursor name to read or commit under")
	max := fs.Int("max", stream.DefaultMaxFetch, "records per poll")
	from := fs.Uint64("from", 0, "replay start offset (default: oldest retained)")
	at := fs.Uint64("at", 0, "offset to commit the cursor at")
	resync := fs.Bool("resync", false, "on truncation, skip to the oldest retained offset")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dir == "" {
		fmt.Fprintln(stderr, "xysub stream: -dir is required")
		return 2
	}
	fromSet, atSet := false, false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "from":
			fromSet = true
		case "at":
			atSet = true
		}
	})

	switch mode {
	case "tail":
		return streamDrain(stdout, stderr, *dir, *consumer, *max, *resync, true, false, 0)
	case "replay":
		// Replay never commits; it reads under a throwaway cursor name so
		// the real consumer's durable position is untouched.
		return streamDrain(stdout, stderr, *dir, "replay."+*consumer, *max, *resync, false, fromSet, *from)
	case "commit":
		if !atSet {
			fmt.Fprintln(stderr, "xysub stream commit: -at is required")
			return 2
		}
		cur, err := stream.OpenCursor(*dir, *consumer, nil)
		if err != nil {
			fmt.Fprintf(stderr, "xysub stream: %v\n", err)
			return 1
		}
		if err := errors.Join(cur.Commit(*at), cur.Close()); err != nil {
			fmt.Fprintf(stderr, "xysub stream: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "cursor %s committed at %d\n", *consumer, *at)
		return 0
	default:
		streamUsage(stderr)
		return 2
	}
}

// streamDrain reads from the start position to the stream's head,
// printing every record, optionally committing the cursor after each
// batch. It returns once a poll comes back empty (caught up).
func streamDrain(stdout, stderr io.Writer, dir, consumer string, max int, resync, commit, fromSet bool, from uint64) int {
	rd, err := stream.OpenReader(dir, consumer, stream.ReaderOptions{MaxFetch: max})
	if err != nil {
		fmt.Fprintf(stderr, "xysub stream: %v\n", err)
		return 1
	}
	defer rd.Close()
	if fromSet {
		rd.Seek(from)
	} else if !commit {
		// Replay with no -from: the full retained window.
		if _, err := rd.SeekOldest(); err != nil {
			fmt.Fprintf(stderr, "xysub stream: %v\n", err)
			return 1
		}
	}
	total := 0
	for {
		recs, err := rd.Poll(max)
		if err != nil {
			var trunc *stream.TruncatedError
			if errors.As(err, &trunc) && resync {
				first, serr := rd.SeekOldest()
				if serr != nil {
					fmt.Fprintf(stderr, "xysub stream: %v\n", serr)
					return 1
				}
				fmt.Fprintf(stderr, "xysub stream: offsets [%d,%d) truncated by retention; resuming at %d\n",
					trunc.Requested, first, first)
				continue
			}
			fmt.Fprintf(stderr, "xysub stream: %v\n", err)
			return 1
		}
		if len(recs) == 0 {
			break
		}
		for _, rec := range recs {
			fmt.Fprintf(stdout, "%d\t%s\t%s\t%d\t%s\n",
				rec.Offset, rec.Time.Format(time.RFC3339), rec.Subscription, rec.Notifications, rec.XML)
		}
		total += len(recs)
		if commit {
			if err := rd.Commit(); err != nil {
				fmt.Fprintf(stderr, "xysub stream: %v\n", err)
				return 1
			}
		}
	}
	fmt.Fprintf(stderr, "xysub stream: %d records, next offset %d\n", total, rd.Next())
	return 0
}

func streamUsage(w io.Writer) {
	fmt.Fprintln(w, `usage: xysub stream tail|replay|commit -dir DIR [flags]
  DIR is <DurableDir>/reporter
  tail    read from the durable cursor to the head, committing as it goes
  replay  read from the oldest retained offset (or -from) without committing
  commit  set the cursor to -at`)
}
