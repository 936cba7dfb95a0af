package main

import (
	"bytes"
	"errors"
)

// sseEvent is one dispatched server-sent event.
type sseEvent struct {
	id, event string
	data      []byte
}

// sseParser is an incremental server-sent-events parser: Feed accepts the
// stream in whatever pieces the transport delivers (HTTP chunks split
// events and lines anywhere) and dispatches each event once its blank
// terminator line has arrived. Comment lines (": heartbeat") are skipped.
type sseParser struct {
	line  []byte // the current, not yet terminated line
	id    string
	event string
	data  []byte
	has   bool // a data field was seen since the last dispatch
}

// errSSELine reports a line too long to be a report event.
var errSSELine = errors.New("sse: line exceeds 16 MiB")

const maxSSELine = 16 << 20

// Feed consumes b, calling emit for every event completed by it. The
// event's data is only valid during the call.
func (p *sseParser) Feed(b []byte, emit func(sseEvent) error) error {
	for len(b) > 0 {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			p.line = append(p.line, b...)
			if len(p.line) > maxSSELine {
				return errSSELine
			}
			return nil
		}
		var line []byte
		if len(p.line) > 0 {
			p.line = append(p.line, b[:i]...)
			line = p.line
		} else {
			line = b[:i]
		}
		b = b[i+1:]
		if err := p.fieldLine(bytes.TrimSuffix(line, []byte{'\r'}), emit); err != nil {
			return err
		}
		p.line = p.line[:0]
	}
	return nil
}

func (p *sseParser) fieldLine(line []byte, emit func(sseEvent) error) error {
	if len(line) == 0 {
		if !p.has {
			p.event = ""
			return nil
		}
		ev := sseEvent{id: p.id, event: p.event, data: p.data}
		if ev.event == "" {
			ev.event = "message"
		}
		p.event, p.data, p.has = "", p.data[:0], false
		return emit(ev)
	}
	if line[0] == ':' {
		return nil
	}
	name, value, _ := bytes.Cut(line, []byte{':'})
	value = bytes.TrimPrefix(value, []byte{' '})
	switch string(name) {
	case "id":
		p.id = string(value)
	case "event":
		p.event = string(value)
	case "data":
		if p.has {
			p.data = append(p.data, '\n')
		}
		p.data = append(p.data, value...)
		p.has = true
	}
	return nil
}
