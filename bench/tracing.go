package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"

	"cosoft/internal/obs"
)

// selfTime is a span's duration minus the part of it its children cover:
// overlapping children are counted once and a child reaching outside the
// parent is clipped to it.
func selfTime(parent obs.Span, children []obs.Span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, edge := int64(0), parent.Start
	for _, v := range ivs {
		if v.hi <= edge {
			continue
		}
		covered += v.hi - max(v.lo, edge)
		edge = v.hi
	}
	return parent.End - parent.Start - covered
}

// eventParts is where one traced event's time went, in nanoseconds. The
// names follow the trace.* metrics.
type eventParts struct {
	originSend   int64 // client.event_send start → server.event_arrival start
	arrival      int64 // server.event_arrival self time
	lock         int64 // lock.acquire
	execOut      int64 // server.exec_send → apply start, mean over members
	execOutMax   int64 // the same, slowest member
	execApply    int64 // apply span, mean over members
	ackReturn    int64 // apply end → server.exec_ack, mean over members
	ackTail      int64 // first server.exec_ack → server.unlock
	resultReturn int64 // server.event_result → client.event_send end
	unlockNotice int64 // server.unlock → notice at the probe member
	// covered is the length of the blocking chain through the last member
	// to acknowledge, from client.event_send start to the unlock notice,
	// summed hop by hop; floor is the bench's own dispatch → notice-received
	// span. Their ratio is the share of the floor time the spans explain.
	covered int64
	floor   int64
}

// attribute splits the spans of one event's trace into its parts. It
// reports false when a hop of the blocking chain is missing.
func attribute(spans []obs.Span) (eventParts, bool) {
	var p eventParts
	one := make(map[string]obs.Span)
	byID := make(map[obs.SpanID]obs.Span, len(spans))
	var applies, acks []obs.Span
	for _, s := range spans {
		byID[s.ID] = s
		switch s.Name {
		case "client.exec_apply", "bench.probe_apply":
			applies = append(applies, s)
		case "server.exec_ack":
			acks = append(acks, s)
		case "server.exec_send":
		default:
			one[s.Name] = s
		}
	}
	need := func(names ...string) bool {
		for _, n := range names {
			if _, ok := one[n]; !ok {
				return false
			}
		}
		return true
	}
	if !need("client.event_send", "server.event_arrival", "lock.acquire", "server.unlock",
		"server.event_result", "bench.unlock_notice", "bench.dispatch", "bench.unlock_wait") ||
		len(applies) == 0 || len(acks) != len(applies) {
		return p, false
	}
	send, arrival, lockSp := one["client.event_send"], one["server.event_arrival"], one["lock.acquire"]
	unlock, notice := one["server.unlock"], one["bench.unlock_notice"]

	p.originSend = arrival.Start - send.Start
	p.arrival = selfTime(arrival, []obs.Span{lockSp})
	p.lock = lockSp.End - lockSp.Start
	p.resultReturn = send.End - one["server.event_result"].Start
	p.unlockNotice = notice.Start - unlock.Start
	p.floor = one["bench.unlock_wait"].End - one["bench.dispatch"].Start

	firstAck, lastAck := acks[0], acks[0]
	for _, a := range acks {
		if a.Start < firstAck.Start {
			firstAck = a
		}
		if a.Start > lastAck.Start {
			lastAck = a
		}
	}
	p.ackTail = unlock.Start - firstAck.Start
	ackOf := make(map[obs.SpanID]obs.Span, len(acks)) // apply span → its ack
	for _, a := range acks {
		ackOf[a.Parent] = a
	}
	n := int64(len(applies))
	for _, ap := range applies {
		sent, ok := byID[ap.Parent]
		ack, ok2 := ackOf[ap.ID]
		if !ok || !ok2 {
			return p, false
		}
		out := ap.Start - sent.Start
		p.execOut += out
		p.execOutMax = max(p.execOutMax, out)
		p.execApply += ap.End - ap.Start
		p.ackReturn += ack.Start - ap.End
		if ack.ID == lastAck.ID {
			p.covered = p.originSend + (sent.Start - arrival.Start) + out + (ap.End - ap.Start) +
				(ack.Start - ap.End) + (unlock.Start - ack.Start) + p.unlockNotice
		}
	}
	p.execOut /= n
	p.execApply /= n
	p.ackReturn /= n
	return p, true
}

// traceMetrics averages the parts over every complete traced event.
func traceMetrics(spans []obs.Span, out map[string]float64) {
	byTrace := make(map[obs.TraceID][]obs.Span)
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	var sum eventParts
	var coverage float64
	events, complete := 0, 0
	for _, ss := range byTrace {
		events++
		p, ok := attribute(ss)
		if !ok || p.floor <= 0 {
			continue
		}
		complete++
		sum.originSend += p.originSend
		sum.arrival += p.arrival
		sum.lock += p.lock
		sum.execOut += p.execOut
		sum.execOutMax += p.execOutMax
		sum.execApply += p.execApply
		sum.ackReturn += p.ackReturn
		sum.ackTail += p.ackTail
		sum.resultReturn += p.resultReturn
		sum.unlockNotice += p.unlockNotice
		coverage += float64(p.covered) / float64(p.floor)
	}
	out["trace.complete_share"] = share(float64(complete), float64(events))
	if complete == 0 {
		return
	}
	us := func(total int64) float64 { return float64(total) / float64(complete) / 1e3 }
	out["trace.origin_send_us"] = us(sum.originSend)
	out["trace.arrival_us"] = us(sum.arrival)
	out["trace.lock_us"] = us(sum.lock)
	out["trace.exec_out_us"] = us(sum.execOut)
	out["trace.exec_out_max_us"] = us(sum.execOutMax)
	out["trace.exec_apply_us"] = us(sum.execApply)
	out["trace.ack_return_us"] = us(sum.ackReturn)
	out["trace.ack_tail_us"] = us(sum.ackTail)
	out["trace.result_return_us"] = us(sum.resultReturn)
	out["trace.unlock_notice_us"] = us(sum.unlockNotice)
	out["trace.coverage_share"] = coverage / float64(complete)
}

// writeSpans writes the spans, oldest first, as one JSON array.
func writeSpans(path string, spans []obs.Span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	w.WriteString("[\n")
	for i := range spans {
		if i > 0 {
			w.WriteString(",")
		}
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
