package main

import (
	"fmt"
	"reflect"
	"time"

	"ssmfp/internal/load"
	"ssmfp/internal/transport"
)

// replayMin is how long each codec replay keeps repeating its sample.
const replayMin = 300 * time.Millisecond

// replayFrames replays a captured frame mix through transport.AppendFrame
// and transport.DecodeFrame: every frame must decode to itself, and the
// mean time per frame of each direction is returned in nanoseconds.
func replayFrames(frames []transport.Frame) (encNS, decNS float64, err error) {
	if len(frames) == 0 {
		return 0, 0, fmt.Errorf("no frames captured")
	}
	bufs := make([][]byte, len(frames))
	for i := range frames {
		bufs[i] = transport.AppendFrame(nil, &frames[i])
		got, err := transport.DecodeFrame(bufs[i])
		if err != nil {
			return 0, 0, fmt.Errorf("frame %d (%s): %w", i, frames[i].Kind, err)
		}
		if !reflect.DeepEqual(got, frames[i]) {
			return 0, 0, fmt.Errorf("frame %d (%s) decoded to %+v, want %+v", i, frames[i].Kind, got, frames[i])
		}
	}
	var enc, dec time.Duration
	passes := 0
	for enc+dec < replayMin {
		a := time.Now()
		for i := range frames {
			bufs[i] = transport.AppendFrame(bufs[i][:0], &frames[i])
		}
		b := time.Now()
		for i := range bufs {
			if _, err := transport.DecodeFrame(bufs[i]); err != nil {
				return 0, 0, fmt.Errorf("frame %d: %w", i, err)
			}
		}
		enc += b.Sub(a)
		dec += time.Since(b)
		passes++
	}
	n := float64(passes * len(frames))
	return float64(enc.Nanoseconds()) / n, float64(dec.Nanoseconds()) / n, nil
}

// replayTags replays captured payload tags through load.ParseTag,
// load.EncodeTag and load.AddHold: each tag must re-encode to itself and
// carry the added hold, and the mean time of the three calls per tag is
// returned in nanoseconds.
func replayTags(payloads []string) (float64, error) {
	if len(payloads) == 0 {
		return 0, fmt.Errorf("no payload tags captured")
	}
	const hold = 7 * time.Microsecond
	for i, p := range payloads {
		seq, src, dst, sched, ok := load.ParseTag(p)
		if !ok {
			return 0, fmt.Errorf("tag %d does not parse", i)
		}
		if q := load.EncodeTag(seq, src, dst, sched); q != p {
			return 0, fmt.Errorf("tag %d re-encodes to %q, want %q", i, q, p)
		}
		q, _ := load.AddHold(p, int64(hold))
		if h, ok := load.ParseTagHold(q); !ok || h != int64(hold) {
			return 0, fmt.Errorf("tag %d carries hold %d after AddHold(%d)", i, h, hold)
		}
	}
	var took time.Duration
	passes := 0
	sink := 0
	for took < replayMin {
		a := time.Now()
		for _, p := range payloads {
			seq, src, dst, sched, _ := load.ParseTag(p)
			q, _ := load.AddHold(load.EncodeTag(seq, src, dst, sched), int64(hold))
			sink += len(q)
		}
		took += time.Since(a)
		passes++
	}
	if sink == 0 {
		return 0, fmt.Errorf("replay produced no tags")
	}
	return float64(took.Nanoseconds()) / float64(passes*len(payloads)), nil
}
