package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Spans of the traced run. Each call the benchmark makes into a layer is one
// span: name, start, end, parent name, and the operation id every span of one
// operation shares. Spans stay in memory and are written out at exit.

type span struct {
	op     uint64
	name   string
	parent string
	start  int64 // ns since the recorder's epoch
	end    int64
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// spanLog collects spans; client goroutines and server handlers share it.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) add(op uint64, name, parent string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{op: op, name: name, parent: parent,
		start: start.Sub(l.epoch).Nanoseconds(), end: end.Sub(l.epoch).Nanoseconds()})
	l.mu.Unlock()
}

// durations returns every span duration of one name, sorted.
func (l *spanLog) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range l.spans {
		if s.name == name {
			out = append(out, s.dur())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// selfTimes returns, per span of name, its duration minus the part its
// child spans (same op, parent == name) cover, sorted.
func (l *spanLog) selfTimes(name string) []time.Duration {
	child := make(map[uint64]time.Duration)
	for _, s := range l.spans {
		if s.parent == name {
			child[s.op] += s.dur()
		}
	}
	var out []time.Duration
	for _, s := range l.spans {
		if s.name == name {
			out = append(out, s.dur()-child[s.op])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// write stores the spans as CSV: op,name,parent,start_ns,end_ns.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,name,parent,start_ns,end_ns")
	for _, s := range l.spans {
		w.WriteString(strconv.FormatUint(s.op, 10) + "," + s.name + "," + s.parent + "," +
			strconv.FormatInt(s.start, 10) + "," + strconv.FormatInt(s.end, 10) + "\n")
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opKey carries the operation id from client.Do through the HTTP transport
// to the server-side span.
type opKey struct{}

const opHeader = "X-Perfbench-Op"

func withOp(ctx context.Context, op uint64) context.Context {
	return context.WithValue(ctx, opKey{}, op)
}

func opFrom(ctx context.Context) (uint64, bool) {
	op, ok := ctx.Value(opKey{}).(uint64)
	return op, ok
}
