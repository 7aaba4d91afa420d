package triple

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"kbt/internal/parallel"
)

// TSV codec for extraction records. The on-disk format is one record per
// line with 8 tab-separated columns, the last one optional:
//
//	extractor  pattern  website  page  subject  predicate  object  [confidence]
//
// A missing or empty confidence column means "unspecified" (the model treats
// it as 1; see Record.Confidence), and writing preserves that distinction:
// an unspecified confidence round-trips as an omitted column, not as a hard
// 1.0. Lines that are blank or start with '#' are skipped. This is the
// interchange format accepted by cmd/kbt.

// WriteTSV writes all records of the dataset to w.
func WriteTSV(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	for i := range d.Records {
		if err := writeRecord(bw, &d.Records[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeRecord writes one record line. A bufio.Writer's error is sticky, so
// the last write's error also reports the failure of any earlier one.
func writeRecord(bw *bufio.Writer, r *Record) error {
	ext := escape(r.Extractor)
	if strings.HasPrefix(ext, "#") {
		// A leading '#' would make the line a comment; escape it (the
		// reader's unescaper maps any unknown \x back to x).
		bw.WriteByte('\\')
	}
	bw.WriteString(ext)
	for _, f := range [...]string{r.Pattern, r.Website, r.Page, r.Subject, r.Predicate, r.Object} {
		bw.WriteByte('\t')
		bw.WriteString(escape(f))
	}
	// The confidence column carries the raw field, not the effective
	// Conf(): serialising an unspecified confidence (0) as "1" would turn
	// every round trip into a lossy normalisation. Out-of-range in-memory
	// values have no on-disk representation the reader accepts, so they
	// serialise as their effective Conf() instead.
	if c := r.Confidence; c != 0 {
		if CheckConfidence(c) != nil {
			c = r.Conf()
		}
		bw.WriteByte('\t')
		bw.Write(strconv.AppendFloat(bw.AvailableBuffer(), c, 'g', -1, 64))
	}
	return bw.WriteByte('\n')
}

// LineError is what ReadTable and ReadTSV return for a bad line of their
// input: the line, counted from 1, and what is wrong with it.
type LineError struct {
	Line int
	Err  error
}

func (e *LineError) Error() string { return fmt.Sprintf("triple: line %d: %v", e.Line, e.Err) }

func (e *LineError) Unwrap() error { return e.Err }

// ReadTable reads its input in blocks of about tsvBlockSize bytes, each cut
// after its last newline, and refuses a line of maxTSVLine bytes or more by
// its line number, with bufio.ErrTooLong — the limit of the bufio.Scanner that
// cmd/kbt's serve loop reads the same format with.
const (
	tsvBlockSize = 1 << 20
	maxTSVLine   = 4 << 20
)

// tsvBlock is one run of whole lines and what parsing it produced: per field,
// the block-local id of every record's label and the labels by local id, in
// order of first appearance within the block, and every record's confidence.
// A label is a copy taken on first sight, so no part of the text outlives the
// parse.
type tsvBlock struct {
	text  string
	ids   [numFields][]int32
	vocab [numFields][]string
	conf  []float64
	lines int   // lines parsed, the failing one included
	err   error // what is wrong with the first bad line
	// refusedLine is the line, within the block, of record refused, the
	// block's first with an empty identity field (0: none).
	refused, refusedLine int
	parsed               chan struct{}
}

// ReadTSV parses records from r into a new Dataset: the records of the table
// ReadTable reads.
func ReadTSV(r io.Reader) (*Dataset, error) { return readTSV(r, tsvBlockSize) }

// readTSV is ReadTSV with the block size as a parameter, which changes where
// the blocks are cut and nothing else; the tests cut them every few bytes.
func readTSV(r io.Reader, blockSize int) (*Dataset, error) {
	t, err := readTable(r, blockSize)
	if err != nil {
		return nil, err
	}
	return &Dataset{Records: t.Records()}, nil
}

// ReadTable parses records from r into a new Table.
//
// A pool of workers parses each block while the following ones are read,
// interning each field into the block's own vocabulary, so that a block's
// text dies once parsed. The blocks are merged in input order as they are
// parsed, each block's labels looked up once in the table's vocabularies, and
// their columns joined once, at the end, at their final length: the ids are
// those of adding the records one at a time. The records, and the first error
// with its line number, are those of reading the input one line at a time
// (ParseTSVLine). A record with an empty identity field is read, and the
// first one's line kept for Table.Check.
func ReadTable(r io.Reader) (*Table, error) { return readTable(r, tsvBlockSize) }

// readTable is ReadTable with the block size as a parameter (see readTSV).
func readTable(r io.Reader, blockSize int) (*Table, error) {
	workers := parallel.DefaultWorkers()
	var (
		jobs = make(chan *tsvBlock)
		// The blocks in input order, to the merge: a block per worker
		// lets the reader keep every worker busy while the merge waits on
		// the oldest, and no further, so unmerged blocks stay few.
		order  = make(chan *tsvBlock, workers)
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for w := workers; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var idx [numFields]map[string]int32
			for f := range idx {
				idx[f] = make(map[string]int32)
			}
			for b := range jobs {
				if b.parse(&idx); b.err != nil {
					failed.Store(true)
				}
				close(b.parsed)
			}
		}()
	}
	m := tableMerge{t: &Table{}}
	merged := make(chan struct{})
	go func() {
		defer close(merged)
		for b := range order {
			<-b.parsed
			m.add(b)
		}
	}()
	submit := func(text []byte) {
		b := &tsvBlock{text: string(text), parsed: make(chan struct{})}
		order <- b
		jobs <- b
	}

	// buf[:held] is the unterminated tail of the previous read. Once a block
	// has failed nothing after it can be the first error, so reading stops.
	// scanErr is what ended the reading otherwise: io.EOF, a failed read, or
	// a line over the limit.
	buf, held := make([]byte, blockSize), 0
	var scanErr error
	for !failed.Load() {
		end := held
		for end < len(buf) && scanErr == nil {
			var n int
			n, scanErr = r.Read(buf[end:])
			end += n
		}
		if scanErr != nil {
			// End of input or a failed read: what is buffered is the last
			// block, and its unterminated tail a line like any other.
			submit(buf[:end])
			break
		}
		cut := held + bytes.LastIndexByte(buf[held:end], '\n') + 1
		if cut == held {
			// No line ends in a full buffer: double it, up to the line limit.
			if end >= maxTSVLine {
				scanErr = bufio.ErrTooLong
				break
			}
			buf, held = append(buf, make([]byte, min(end, maxTSVLine-end))...), end
			continue
		}
		submit(buf[:cut])
		held = copy(buf, buf[cut:end])
	}
	close(jobs)
	close(order)
	wg.Wait()
	<-merged

	// A bad line comes before whatever ended the reading after it. A line
	// over the limit is the one after every line merged.
	switch {
	case m.err != nil:
		return nil, m.err
	case scanErr == bufio.ErrTooLong:
		return nil, &LineError{Line: m.lines + 1, Err: scanErr}
	case scanErr != nil && scanErr != io.EOF:
		return nil, fmt.Errorf("triple: scan: %w", scanErr)
	}
	return m.table(), nil
}

// tableMerge gathers parsed blocks in input order: it gives each block's
// labels their ids in the table's vocabularies as the block arrives, and
// joins the blocks' columns once, when the last has arrived.
type tableMerge struct {
	t      *Table
	index  [numFields]map[string]int32 // the table's labels to their ids
	blocks []*tsvBlock                 // merged, their ids the table's
	n      int                         // their records
	lines  int                         // their lines
	err    error                       // the first bad line's, after which nothing merges
}

// add merges a block: its ids become the table's, in place, and its own
// vocabularies go.
func (m *tableMerge) add(b *tsvBlock) {
	if m.err != nil {
		return
	}
	if b.err != nil {
		m.err = &LineError{Line: m.lines + b.lines, Err: b.err}
		return
	}
	t := m.t
	checkIDs(m.n + len(b.conf))
	if b.refusedLine > 0 && t.refusedLine == 0 {
		t.refused, t.refusedLine = m.n+b.refused, m.lines+b.refusedLine
	}
	var local []int32 // the block's ids to the table's
	for f := range numFields {
		if m.index[f] == nil {
			m.index[f] = make(map[string]int32)
		}
		local = local[:0]
		for _, label := range b.vocab[f] {
			id, ok := m.index[f][label]
			if !ok {
				id = nextID(len(t.vocab[f]))
				m.index[f][label] = id
				t.vocab[f] = append(t.vocab[f], label)
			}
			local = append(local, id)
		}
		for i, id := range b.ids[f] {
			b.ids[f][i] = local[id]
		}
		b.vocab[f] = nil
	}
	m.blocks = append(m.blocks, b)
	m.n += len(b.conf)
	m.lines += b.lines
}

// table joins the merged blocks' columns into the table's, one field at a
// time, each at its final length, letting each block's column go once copied.
// The table builds its label index on first use (Table.labelIndex).
func (m *tableMerge) table() *Table {
	t := m.t
	t.lazy = new(sync.Once)
	for f := range numFields {
		t.ids[f] = make([]int32, 0, m.n)
		for _, b := range m.blocks {
			t.ids[f] = append(t.ids[f], b.ids[f]...)
			b.ids[f] = nil
		}
	}
	t.conf = make([]float64, 0, m.n)
	for _, b := range m.blocks {
		t.conf = append(t.conf, b.conf...)
		b.conf = nil
	}
	return t
}

// parse fills in the block's columns, stopping at its first bad line; idx is
// the worker's scratch map per field, cleared here.
func (b *tsvBlock) parse(idx *[numFields]map[string]int32) {
	rest := b.text
	b.text = ""
	for f := range idx {
		clear(idx[f])
	}
	n := strings.Count(rest, "\n") + 1
	for f := range b.ids {
		b.ids[f] = make([]int32, 0, n)
	}
	b.conf = make([]float64, 0, n)
	for rest != "" {
		line := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		b.lines++
		line = strings.TrimSuffix(line, "\r")
		if line == "" || line[0] == '#' {
			continue
		}
		cols, conf, err := splitLine(line)
		if err != nil {
			b.err = err
			return
		}
		c, err := parseConfidence(conf)
		if err != nil {
			b.err = err
			return
		}
		for f, col := range cols {
			label, fresh := col, false
			if strings.Contains(col, `\`) {
				label, fresh = unescape(col), true
			}
			id, ok := idx[f][label]
			if !ok {
				if !fresh {
					label = strings.Clone(label)
				}
				id = nextID(len(b.vocab[f]))
				idx[f][label] = id
				b.vocab[f] = append(b.vocab[f], label)
			}
			b.ids[f] = append(b.ids[f], id)
		}
		if b.refusedLine == 0 {
			for _, f := range identityFields {
				if b.vocab[f][b.ids[f][len(b.conf)]] == "" {
					b.refused, b.refusedLine = len(b.conf), b.lines
					break
				}
			}
		}
		b.conf = append(b.conf, c)
	}
}

// ParseTSVLine parses a single TSV record line — the streaming counterpart
// to ReadTSV for callers that feed records into an incremental consumer as
// they arrive. Blank and comment lines are the caller's concern.
func ParseTSVLine(line string) (Record, error) { return parseLine(line) }

func parseLine(line string) (Record, error) {
	cols, conf, err := splitLine(line)
	if err != nil {
		return Record{}, err
	}
	c, err := parseConfidence(conf)
	if err != nil {
		return Record{}, err
	}
	return Record{
		Extractor:  unescape(cols[fieldExtractor]),
		Pattern:    unescape(cols[fieldPattern]),
		Website:    unescape(cols[fieldWebsite]),
		Page:       unescape(cols[fieldPage]),
		Subject:    unescape(cols[fieldSubject]),
		Predicate:  unescape(cols[fieldPredicate]),
		Object:     unescape(cols[fieldObject]),
		Confidence: c,
	}, nil
}

// splitLine cuts a record line into its seven fields, still escaped, in Field
// order, and its confidence column ("" when omitted).
func splitLine(line string) (cols [numFields]string, conf string, err error) {
	// Each of the first seven columns ends at a tab; the last column, the
	// object or the confidence, is what remains.
	n, rest := 0, line
	for ; n < len(cols); n++ {
		i := strings.IndexByte(rest, '\t')
		if i < 0 {
			break
		}
		cols[n], rest = rest[:i], rest[i+1:]
	}
	if extra := strings.Count(rest, "\t"); n < 6 || extra > 0 {
		return cols, "", fmt.Errorf("expected 8 tab-separated columns (confidence optional), got %d", n+1+extra)
	}
	conf = rest
	if n == 6 {
		cols[6], conf = rest, ""
	}
	return cols, conf, nil
}

// parseConfidence parses a confidence column; an empty one is unspecified (0).
func parseConfidence(conf string) (float64, error) {
	if conf == "" {
		return 0, nil
	}
	c, err := strconv.ParseFloat(conf, 64)
	if err != nil {
		return 0, fmt.Errorf("bad confidence %q: %w", conf, err)
	}
	if err := CheckConfidence(c); err != nil {
		return 0, err
	}
	return c, nil
}

// escape protects tabs, newlines and carriage returns inside field values
// (the line scanner would otherwise split on the former and strip the
// latter).
func escape(s string) string {
	if !strings.ContainsAny(s, "\t\n\r\\") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\t':
			b.WriteString(`\t`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\\':
			b.WriteString(`\\`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

func unescape(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case 't':
				b.WriteByte('\t')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case '\\':
				b.WriteByte('\\')
			default:
				b.WriteByte(s[i+1])
			}
			i++
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
