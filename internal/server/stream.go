package server

import (
	"repro/internal/api"
	"repro/internal/core"
)

// streamEventBuffer bounds the in-flight event queue between the solver
// goroutine and the HTTP writer. The solver never blocks on a slow
// client: when the buffer is full, progress events are dropped (the
// terminal frame never is — it travels through the task, not the
// channel).
const streamEventBuffer = 256

// eventPump is the streaming edge of a solve: the solver goroutine emits
// progress into events through the onIter/onDet hooks, and the handler
// goroutine waiting in await sends them (and finally the terminal frame)
// down the SSE writer. Nothing is written before the first send, so a
// request refused at the queue is still answered as a plain envelope.
type eventPump struct {
	events chan api.SolveEvent
	sw     *api.SSEWriter
	gone   bool // the client went away mid-stream
}

func newEventPump(sw *api.SSEWriter) *eventPump {
	return &eventPump{events: make(chan api.SolveEvent, streamEventBuffer), sw: sw}
}

func (p *eventPump) emit(ev api.SolveEvent) {
	select {
	case p.events <- ev:
	default: // slow client: shed progress, never block the solver
	}
}

func (p *eventPump) onIter(it int, rho float64) {
	p.emit(api.SolveEvent{Kind: api.EventIteration, Iteration: it, Rho: rho})
}

func (p *eventPump) onDet(ev core.DetectionEvent) {
	p.emit(api.SolveEvent{
		Kind:        api.EventDetection,
		Iteration:   ev.Iteration,
		Detections:  ev.Detections,
		Corrections: ev.Corrections,
		RolledBack:  ev.RolledBack,
	})
}

// send writes one frame. Once a write fails the client is gone: the solve
// still completes (it may be feeding the cache and the counters), the pump
// just stops writing.
func (p *eventPump) send(ev *api.SolveEvent) {
	if !p.gone && p.sw.Send(ev) != nil {
		p.gone = true
	}
}

// drain sends the progress events the solver emitted before it finished.
func (p *eventPump) drain() {
	for {
		select {
		case ev := <-p.events:
			p.send(&ev)
		default:
			return
		}
	}
}
