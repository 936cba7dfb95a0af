package distrib

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// reportEncoder appends a ReportJSON's wire form without reflection: the
// bytes json.Marshal gives for it (floats formatted as encoding/json
// formats them, map keys sorted, HTML, U+2028 and U+2029 escaped,
// invalid UTF-8 written as U+FFFD, omitempty honoured, NaN and ±Inf
// rejected), except that a nil Results encodes as [] rather than null.
// It keeps its key scratch across calls; the zero value is ready. The
// types carry no MarshalJSON method on purpose: the tests compare this
// encoder with reflection.
type reportEncoder struct {
	keys []string // one result's net_tokens keys, sorted
}

// appendReport appends r's encoding to b and records in ends[i] the
// offset, from where the report starts in b, just past Results[i]. ends
// must hold len(r.Results) entries. On error b may hold a partial
// encoding.
func (e *reportEncoder) appendReport(b []byte, r *ReportJSON, ends []int) ([]byte, error) {
	start := len(b)
	b = append(b, '{')
	if r.Version != 0 {
		b = append(b, `"version":`...)
		b = strconv.AppendUint(b, r.Version, 10)
		b = append(b, ',')
	}
	if r.Height != 0 {
		b = append(b, `"height":`...)
		b = strconv.AppendInt(b, r.Height, 10)
		b = append(b, ',')
	}
	b = append(b, `"strategy":`...)
	b = appendString(b, r.Strategy)
	b = appendInt(b, `,"parallelism":`, r.Parallelism)
	b = appendInt(b, `,"tokens":`, r.Tokens)
	b = appendInt(b, `,"pools":`, r.Pools)
	b = appendInt(b, `,"cycles_examined":`, r.CyclesExamined)
	b = appendInt(b, `,"loops_detected":`, r.LoopsDetected)
	b = appendInt(b, `,"failed":`, r.Failed)
	b = append(b, `,"topology_cache_hit":`...)
	b = strconv.AppendBool(b, r.TopologyCacheHit)
	b = appendInt(b, `,"loops_reoptimized":`, r.LoopsReoptimized)
	b = appendInt(b, `,"loops_reused":`, r.LoopsReused)
	b = appendInt(b, `,"shards_scanned":`, r.ShardsScanned)
	b = append(b, `,"degraded":`...)
	b = strconv.AppendBool(b, r.Degraded)
	b = append(b, `,"results":[`...)
	for i := range r.Results {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = e.appendResult(b, &r.Results[i]); err != nil {
			return b, fmt.Errorf("result %d: %w", i, err)
		}
		ends[i] = len(b) - start
	}
	return append(b, frameTail...), nil
}

func (e *reportEncoder) appendResult(b []byte, r *ResultJSON) ([]byte, error) {
	var err error
	b = appendInt(b, `{"index":`, r.Index)
	b = append(b, `,"loop":`...)
	b = appendString(b, r.Loop)
	b = append(b, `,"strategy":`...)
	b = appendString(b, r.Strategy)
	if r.StartToken != "" {
		b = append(b, `,"start_token":`...)
		b = appendString(b, r.StartToken)
	}
	if r.Input != 0 {
		b = append(b, `,"input":`...)
		if b, err = appendFloat(b, r.Input); err != nil {
			return b, err
		}
	}
	b = append(b, `,"profit_usd":`...)
	if b, err = appendFloat(b, r.ProfitUSD); err != nil {
		return b, err
	}
	if len(r.NetTokens) > 0 {
		e.keys = e.keys[:0]
		for k := range r.NetTokens {
			e.keys = append(e.keys, k)
		}
		slices.Sort(e.keys)
		b = append(b, `,"net_tokens":{`...)
		for i, k := range e.keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(appendString(b, k), ':')
			if b, err = appendFloat(b, r.NetTokens[k]); err != nil {
				return b, err
			}
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// appendInt appends a field's name (with its leading comma or brace)
// and an int value.
func appendInt(b []byte, name string, v int) []byte {
	return strconv.AppendInt(append(b, name...), int64(v), 10)
}

// appendFloat appends f as encoding/json does: like ES6's number to
// string conversion, so 'f' format inside [1e-6, 1e21) and 'e' format
// with an unpadded exponent outside it. NaN and ±Inf are an error, the
// one json.Marshal returns.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 becomes e-7.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way json.Marshal writes
// it: `"` and `\` escaped with a backslash, control bytes as \b, \f,
// \n, \r, \t or a six-byte escape of their code, and `<`, `>`, `&`,
// U+2028 and U+2029 as six-byte escapes too. Each byte of invalid
// UTF-8 becomes the escape of U+FFFD.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
