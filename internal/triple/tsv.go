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

// ReadTSV reads its input in blocks of about tsvBlockSize bytes, each cut
// after its last newline, and refuses a line of maxTSVLine bytes or more with
// bufio.ErrTooLong — the limit of the bufio.Scanner that cmd/kbt's serve loop
// reads the same format with.
const (
	tsvBlockSize = 1 << 20
	maxTSVLine   = 4 << 20
)

// tsvBlock is one run of whole lines and what parsing it produced.
type tsvBlock struct {
	text    string
	records []Record
	lines   int   // lines parsed, the failing one included
	err     error // what is wrong with the first bad line
}

// ReadTSV parses records from r into a new Dataset.
//
// A pool of workers parses each block while the following ones are read, and
// the per-block records are joined once, in input order. A field is a
// substring of its block (or a fresh string where an escape had to be
// undone). The records, and the first error with its line number, are those
// of reading the input one line at a time.
func ReadTSV(r io.Reader) (*Dataset, error) { return readTSV(r, tsvBlockSize) }

// readTSV is ReadTSV with the block size as a parameter, which changes where
// the blocks are cut and nothing else; the tests cut them every few bytes.
func readTSV(r io.Reader, blockSize int) (*Dataset, error) {
	var (
		blocks []*tsvBlock
		jobs   = make(chan *tsvBlock)
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for w := parallel.DefaultWorkers(); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range jobs {
				if b.parse(); b.err != nil {
					failed.Store(true)
				}
			}
		}()
	}
	submit := func(text []byte) {
		b := &tsvBlock{text: string(text)}
		blocks = append(blocks, b)
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
	wg.Wait()

	// A bad line comes before whatever ended the reading after it.
	total, lines := 0, 0
	for _, b := range blocks {
		if b.err != nil {
			return nil, fmt.Errorf("triple: line %d: %w", lines+b.lines, b.err)
		}
		total += len(b.records)
		lines += b.lines
	}
	if scanErr != nil && scanErr != io.EOF {
		return nil, fmt.Errorf("triple: scan: %w", scanErr)
	}
	d := &Dataset{Records: make([]Record, 0, total)}
	for _, b := range blocks {
		d.Records = append(d.Records, b.records...)
	}
	return d, nil
}

// parse fills in the block's records, stopping at its first bad line.
func (b *tsvBlock) parse() {
	rest := b.text
	b.records = make([]Record, 0, strings.Count(rest, "\n")+1)
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
		rec, err := parseLine(line)
		if err != nil {
			b.err = err
			return
		}
		b.records = append(b.records, rec)
	}
}

// ParseTSVLine parses a single TSV record line — the streaming counterpart
// to ReadTSV for callers that feed records into an incremental consumer as
// they arrive. Blank and comment lines are the caller's concern.
func ParseTSVLine(line string) (Record, error) { return parseLine(line) }

func parseLine(line string) (Record, error) {
	// Each of the first seven columns ends at a tab; the last column, the
	// object or the confidence, is what remains.
	var cols [7]string
	n, rest := 0, line
	for ; n < len(cols); n++ {
		i := strings.IndexByte(rest, '\t')
		if i < 0 {
			break
		}
		cols[n], rest = rest[:i], rest[i+1:]
	}
	if extra := strings.Count(rest, "\t"); n < 6 || extra > 0 {
		return Record{}, fmt.Errorf("expected 8 tab-separated columns (confidence optional), got %d", n+1+extra)
	}
	conf := rest
	if n == 6 {
		cols[6], conf = rest, ""
	}
	rec := Record{
		Extractor: unescape(cols[0]),
		Pattern:   unescape(cols[1]),
		Website:   unescape(cols[2]),
		Page:      unescape(cols[3]),
		Subject:   unescape(cols[4]),
		Predicate: unescape(cols[5]),
		Object:    unescape(cols[6]),
	}
	if conf != "" {
		c, err := strconv.ParseFloat(conf, 64)
		if err != nil {
			return Record{}, fmt.Errorf("bad confidence %q: %w", conf, err)
		}
		if err := CheckConfidence(c); err != nil {
			return Record{}, err
		}
		rec.Confidence = c
	}
	return rec, nil
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
