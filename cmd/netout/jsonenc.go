package main

import (
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"netout"
)

// The one encoder of jsonResult: the /query body and the -json line. It
// appends where encoding/json reflects, and its bytes are encoding/json's —
// field order, omitempty, HTML-safe string escapes, ES6 number formatting, the
// Encoder's trailing newline — which TestJSONEncoderMatchesEncodingJSON holds
// it to. Like Marshal it refuses NaN and ±Inf, with nothing written the
// caller can mistake for a body.

// jsonBufs recycles encode buffers across requests.
var jsonBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendJSONResult appends jr as one JSON object and a newline.
func appendJSONResult(dst []byte, jr *jsonResult) ([]byte, error) {
	dst = append(dst, '{')
	if jr.RequestID != "" {
		dst = appendJSONString(append(dst, `"request_id":`...), jr.RequestID)
		dst = append(dst, ',')
	}
	if jr.TraceID != "" {
		dst = appendJSONString(append(dst, `"trace_id":`...), jr.TraceID)
		dst = append(dst, ',')
	}
	dst = append(dst, `"entries":`...)
	if jr.Entries == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, e := range jr.Entries {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(dst, `{"rank":`...), int64(e.Rank), 10)
			dst = appendJSONString(append(dst, `,"name":`...), e.Name)
			var err error
			if dst, err = appendJSONFloat(append(dst, `,"score":`...), e.Score); err != nil {
				return nil, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if jr.Partial {
		dst = append(dst, `,"partial":true`...)
	}
	dst = strconv.AppendInt(append(dst, `,"skipped":`...), int64(jr.Skipped), 10)
	dst = strconv.AppendInt(append(dst, `,"candidates":`...), int64(jr.CandidateCount), 10)
	dst = strconv.AppendInt(append(dst, `,"references":`...), int64(jr.ReferenceCount), 10)
	dst = strconv.AppendInt(append(dst, `,"total_us":`...), jr.TotalMicros, 10)
	if t := jr.Timing; t != nil {
		dst = strconv.AppendInt(append(dst, `,"timing":{"set_retrieval_us":`...), t.SetRetrievalUs, 10)
		dst = strconv.AppendInt(append(dst, `,"traversal_us":`...), t.TraversalUs, 10)
		dst = strconv.AppendInt(append(dst, `,"traversed_vectors":`...), t.TraversedVectors, 10)
		dst = strconv.AppendInt(append(dst, `,"indexed_us":`...), t.IndexedUs, 10)
		dst = strconv.AppendInt(append(dst, `,"indexed_vectors":`...), t.IndexedVectors, 10)
		dst = strconv.AppendInt(append(dst, `,"scoring_us":`...), t.ScoringUs, 10)
		dst = append(dst, '}')
	}
	if len(jr.Trace) > 0 {
		dst = append(dst, `,"trace":[`...)
		for i, p := range jr.Trace {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(append(dst, `{"phase":`...), p.Phase)
			dst = strconv.AppendInt(append(dst, `,"duration_us":`...), p.DurationUs, 10)
			dst = appendNonZero(dst, `,"traversed_vectors":`, p.TraversedVectors)
			dst = appendNonZero(dst, `,"indexed_vectors":`, p.IndexedVectors)
			dst = appendNonZero(dst, `,"cache_hits":`, p.CacheHits)
			dst = appendNonZero(dst, `,"cache_misses":`, p.CacheMisses)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}', '\n'), nil
}

// appendNonZero appends an omitempty integer field.
func appendNonZero(dst []byte, key string, n int64) []byte {
	if n == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), n, 10)
}

// appendJSONFloat is encoding/json's float64 encoder: the ES6 number-to-string
// conversion, exponents from 1e21 and below 1e-6, unpadded.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, netout.Errorf(netout.CodeInternal, "json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 is written e-9
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendJSONString is encoding/json's string encoder with HTML escaping on,
// as Marshal and a default Encoder run it: ", \ and control bytes escaped
// (\b \f \n \r \t by letter), <, > and & as \u00XX, invalid UTF-8 as \ufffd,
// U+2028 and U+2029 as escapes.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			c, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case c == utf8.RuneError && size == 1:
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
			case c == '\u2028' || c == '\u2029':
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
			default:
				i += size
				continue
			}
			i += size
			start = i
			continue
		}
		if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch b {
		case '\\', '"':
			dst = append(dst, '\\', b)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
		}
		i++
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
