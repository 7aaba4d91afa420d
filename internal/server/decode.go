package server

import (
	"strconv"
	"unicode/utf8"

	"kbt"
)

// decodeCanonical decodes an ingest body written in the canonical form, the
// one json.Marshal gives a []kbt.Extraction whose strings are valid UTF-8
// and need no escape: JSON whitespace around one array of objects, each
// object's keys Extraction's exact field names at most once apiece, every
// string field a string with no backslash and no control byte, Confidence a
// JSON number, and nothing after the array. It reports false on any other
// body without answering the client, and the caller hands that body to
// decodeJSON, the reference this path must agree with: a body it accepts
// decodes there to the same batch, with no error.
//
// Each record's string bytes are copied into one arena per batch, which is
// converted to a string once and sliced into the fields.
func decodeCanonical(body []byte) ([]kbt.Extraction, bool) {
	sc := scanner{b: body}
	if !sc.eat('[') {
		return nil, false
	}
	// json.Marshal writes a record in ~190 bytes; append grows past this.
	est := len(body)/128 + 1
	batch := make([]kbt.Extraction, 0, est)
	ends := make([]int32, 0, numStrings*est)
	arena := make([]byte, 0, len(body))
	if !sc.eat(']') {
		for {
			var span [numStrings][2]int
			rec, ok := sc.record(&span)
			if !ok {
				return nil, false
			}
			for _, sp := range span {
				arena = append(arena, body[sp[0]:sp[1]]...)
				ends = append(ends, int32(len(arena)))
			}
			batch = append(batch, rec)
			if sc.eat(']') {
				break
			}
			if !sc.eat(',') {
				return nil, false
			}
		}
	}
	if sc.ws(); sc.i != len(body) {
		return nil, false
	}
	str, at := string(arena), 0
	for i := range batch {
		var f [numStrings]string
		for k := range f {
			end := int(ends[numStrings*i+k])
			f[k], at = str[at:end], end
		}
		r := &batch[i]
		r.Extractor, r.Pattern, r.Website, r.Page = f[0], f[1], f[2], f[3]
		r.Subject, r.Predicate, r.Object = f[4], f[5], f[6]
	}
	return batch, true
}

// numStrings is the number of string fields in kbt.Extraction; a record's
// field slot is its index in declaration order, Confidence numStrings.
const numStrings = 7

// slot maps an exact-case field name to its slot, or -1.
func slot(key []byte) int {
	switch string(key) {
	case "Extractor":
		return 0
	case "Pattern":
		return 1
	case "Website":
		return 2
	case "Page":
		return 3
	case "Subject":
		return 4
	case "Predicate":
		return 5
	case "Object":
		return 6
	case "Confidence":
		return numStrings
	}
	return -1
}

// scanner walks a body by hand; every method reports false, moving nowhere
// that matters, on input outside the canonical grammar.
type scanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (sc *scanner) ws() {
	for sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

// eat consumes c after any whitespace, if c is next.
func (sc *scanner) eat(c byte) bool {
	sc.ws()
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// record scans one object, leaving its string fields' bounds in span (empty
// where a field is absent) and returning the record with its Confidence.
func (sc *scanner) record(span *[numStrings][2]int) (kbt.Extraction, bool) {
	var rec kbt.Extraction
	if !sc.eat('{') {
		return rec, false
	}
	if sc.eat('}') {
		return rec, true
	}
	seen := 0
	for {
		lo, hi, ok := sc.str()
		if !ok || !sc.eat(':') {
			return rec, false
		}
		k := slot(sc.b[lo:hi])
		if k < 0 || seen&(1<<k) != 0 {
			return rec, false
		}
		seen |= 1 << k
		if k == numStrings {
			if rec.Confidence, ok = sc.number(); !ok {
				return rec, false
			}
		} else if span[k][0], span[k][1], ok = sc.str(); !ok {
			return rec, false
		}
		if sc.eat('}') {
			return rec, true
		}
		if !sc.eat(',') {
			return rec, false
		}
	}
}

// str scans a string with no backslash and no control byte, in valid UTF-8,
// and returns the bounds of its contents.
func (sc *scanner) str() (lo, hi int, ok bool) {
	if !sc.eat('"') {
		return 0, 0, false
	}
	lo = sc.i
	ascii := true
	for i := lo; i < len(sc.b); i++ {
		switch c := sc.b[i]; {
		case c == '"':
			if !ascii && !utf8.Valid(sc.b[lo:i]) {
				return 0, 0, false
			}
			sc.i = i + 1
			return lo, i, true
		case c < 0x20 || c == '\\':
			return 0, 0, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return 0, 0, false
}

// number scans a JSON number, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
// and parses it as encoding/json parses a float64; a range error declines.
func (sc *scanner) number() (float64, bool) {
	sc.ws()
	b, start := sc.b, sc.i
	i := start
	digits := func() bool {
		from := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, false
	}
	sc.i = i
	return f, true
}
