package triple

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
)

func TestTSVRoundTrip(t *testing.T) {
	d := NewDataset()
	d.Add(Record{Extractor: "E1", Pattern: "p\t1", Website: "w.com", Page: "w.com/a",
		Subject: "Barack Obama", Predicate: "nationality", Object: "USA", Confidence: 0.85})
	d.Add(Record{Extractor: "E2", Pattern: "p2", Website: "x.com", Page: "x.com/b",
		Subject: "line\nbreak", Predicate: "p", Object: "back\\slash"})

	var buf bytes.Buffer
	if err := WriteTSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(got.Records))
	}
	if got.Records[0].Pattern != "p\t1" {
		t.Errorf("tab not round-tripped: %q", got.Records[0].Pattern)
	}
	if got.Records[0].Confidence != 0.85 {
		t.Errorf("confidence = %v", got.Records[0].Confidence)
	}
	if got.Records[1].Subject != "line\nbreak" {
		t.Errorf("newline not round-tripped: %q", got.Records[1].Subject)
	}
	if got.Records[1].Object != "back\\slash" {
		t.Errorf("backslash not round-tripped: %q", got.Records[1].Object)
	}
	if got.Records[1].Conf() != 1 {
		t.Errorf("default confidence = %v, want 1", got.Records[1].Conf())
	}
}

// TestTSVRoundTripProperty: Write→Read must reproduce every record field
// exactly, over randomized field contents (including escaped tabs, newlines
// and backslashes) and confidences — in particular, an unspecified
// confidence (0) must round-trip as unspecified, not as a hard 1.0.
func TestTSVRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pieces := []string{"a", "b.com", "", "x y", "\t", "\n", "\r", "\\", "\\t", "t\tb", "n\nb", `mix\t\n\\`, "ünïcode", "#lead", "trail\\"}
	randField := func(nonEmpty bool) string {
		var b strings.Builder
		n := rng.Intn(3) + 1
		for i := 0; i < n; i++ {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		s := b.String()
		if nonEmpty && s == "" {
			return "z"
		}
		return s
	}
	for trial := 0; trial < 200; trial++ {
		d := NewDataset()
		n := rng.Intn(6) + 1
		for i := 0; i < n; i++ {
			rec := Record{
				// Identity fields non-empty so a record never serialises to
				// a blank (skipped) line.
				Extractor: randField(true),
				Pattern:   randField(false),
				Website:   randField(true),
				Page:      randField(false),
				Subject:   randField(true),
				Predicate: randField(true),
				Object:    randField(true),
			}
			switch rng.Intn(3) {
			case 0: // unspecified
			case 1:
				rec.Confidence = 1
			default:
				rec.Confidence = float64(rng.Intn(1000)+1) / 1000
			}
			d.Add(rec)
		}
		var buf bytes.Buffer
		if err := WriteTSV(&buf, d); err != nil {
			t.Fatal(err)
		}
		got, err := ReadTSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: read back: %v\nserialised:\n%q", trial, err, buf.String())
		}
		if len(got.Records) != len(d.Records) {
			t.Fatalf("trial %d: %d records round-tripped to %d", trial, len(d.Records), len(got.Records))
		}
		for i, want := range d.Records {
			if got.Records[i] != want {
				t.Fatalf("trial %d: record %d round-tripped to\n %#v\nwant\n %#v", trial, i, got.Records[i], want)
			}
		}
	}
}

// TestTSVUnspecifiedConfidenceStaysUnspecified pins the regression: a record
// with Confidence == 0 must not come back as a hard 1.0.
func TestTSVUnspecifiedConfidenceStaysUnspecified(t *testing.T) {
	d := NewDataset()
	d.Add(Record{Extractor: "E", Pattern: "p", Website: "w", Page: "w/1",
		Subject: "s", Predicate: "pr", Object: "o"})
	var buf bytes.Buffer
	if err := WriteTSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Records[0].Confidence != 0 {
		t.Errorf("unspecified confidence round-tripped as %v, want 0 (unspecified)", got.Records[0].Confidence)
	}
	if got.Records[0].Conf() != 1 {
		t.Errorf("effective confidence = %v, want 1", got.Records[0].Conf())
	}
}

func TestReadTSVSkipsCommentsAndBlank(t *testing.T) {
	in := "# a comment\n\nE1\tp\tw\tw/1\ts\tpred\to\t0.5\n"
	d, err := ReadTSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Records) != 1 {
		t.Fatalf("records = %d, want 1", len(d.Records))
	}
}

func TestReadTSVErrors(t *testing.T) {
	cases := []string{
		"E1\tp\tw\tw/1\ts\tpred\n",                // too few columns
		"E1\tp\tw\tw/1\ts\tpred\to\t0.5\textra\n", // too many columns
		"E1\tp\tw\tw/1\ts\tpred\to\tnope\n",       // bad confidence
		"E1\tp\tw\tw/1\ts\tpred\to\t1.5\n",        // out-of-range confidence
		"E1\tp\tw\tw/1\ts\tpred\to\t-0.25\n",      // negative confidence
		"E1\tp\tw\tw/1\ts\tpred\to\tNaN\n",        // NaN confidence
	}
	for _, in := range cases {
		if _, err := ReadTSV(strings.NewReader(in)); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

// TestTSVWriteOutOfRangeConfidence: an out-of-range in-memory confidence has
// no on-disk representation the reader accepts, so it serialises as its
// effective Conf() — the file stays readable.
func TestTSVWriteOutOfRangeConfidence(t *testing.T) {
	d := NewDataset()
	d.Add(Record{Extractor: "E", Pattern: "p", Website: "w", Page: "w/1",
		Subject: "s", Predicate: "pr", Object: "o", Confidence: 1.5})
	var buf bytes.Buffer
	if err := WriteTSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(&buf)
	if err != nil {
		t.Fatalf("out-of-range confidence produced an unreadable file: %v", err)
	}
	if got.Records[0].Confidence != 1 {
		t.Errorf("confidence 1.5 round-tripped as %v, want effective 1", got.Records[0].Confidence)
	}
}

func TestReadTSVMissingConfidenceColumn(t *testing.T) {
	d, err := ReadTSV(strings.NewReader("E1\tp\tw\tw/1\ts\tpred\to\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Records[0].Conf() != 1 {
		t.Errorf("missing confidence should mean 1, got %v", d.Records[0].Conf())
	}
}

// readTSVByLine is the reference the block reader is held to: one
// bufio.Scanner line at a time through ParseTSVLine, first error wins.
func readTSVByLine(r io.Reader) (*Dataset, error) {
	d := NewDataset()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxTSVLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rec, err := ParseTSVLine(line)
		if err != nil {
			return nil, fmt.Errorf("triple: line %d: %w", lineNo, err)
		}
		d.Add(rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("triple: scan: %w", err)
	}
	return d, nil
}

// requireSameRead fails unless the block reader, cutting blocks of blockSize
// bytes, returns the records or the error text that the reference returns
// for the same input. open must hand out a fresh reader on every call.
func requireSameRead(t *testing.T, blockSize int, open func() io.Reader) {
	t.Helper()
	want, wantErr := readTSVByLine(open())
	got, gotErr := readTSV(open(), blockSize)
	if (wantErr == nil) != (gotErr == nil) || wantErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("block size %d: error %v, reference %v", blockSize, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("block size %d: %d records, reference %d", blockSize, len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("block size %d: record %d is\n %#v\nreference\n %#v", blockSize, i, got.Records[i], want.Records[i])
		}
	}
}

const tsvLine = "E1\tp\tw.com\tw.com/1\tsubject\tpred\tobject\t0.5"

// TestReadTSVMatchesLineReader walks the shapes a block cut can land in — a
// record, a comment, a blank line, a CRLF, the missing final newline — with
// the cut moved through every position of a small input, and then through the
// real block size with each shape placed across the first cut.
func TestReadTSVMatchesLineReader(t *testing.T) {
	inputs := map[string]string{
		"empty":               "",
		"only newline":        "\n",
		"no trailing newline": tsvLine + "\n" + tsvLine,
		"crlf":                tsvLine + "\r\n\r\n# c\r\n" + tsvLine + "\r\n",
		"lone cr tail":        tsvLine + "\n\r",
		"one cr dropped":      tsvLine + "\r\r\n",
		"cr cr":               tsvLine + "\n\r\r\n",
		"cr inside":           "E1\tp\r\tw\tw/1\ts\tpr\to\n",
		"comments and blanks": "# a\n\n" + tsvLine + "\n\n\n# b\n#\n" + tsvLine + "\n# c",
		"escapes":             "E\\t1\tp\\\\\tw\tw/1\ts\\n\tpr\to\\r\n",
		"bad line 3":          tsvLine + "\n# c\n" + "E1\tp\tw\n" + tsvLine + "\n",
		"bad confidence":      tsvLine + "\n\n" + tsvLine + "\n" + strings.Replace(tsvLine, "0.5", "1.5", 1) + "\n" + "junk\n",
		"two bad lines":       "junk\n" + tsvLine + "\n" + "more junk\n",
	}
	for name, in := range inputs {
		for blockSize := 1; blockSize <= len(in)+2; blockSize++ {
			t.Run(fmt.Sprintf("%s/%d", name, blockSize), func(t *testing.T) {
				requireSameRead(t, blockSize, func() io.Reader { return strings.NewReader(in) })
				// The same bytes through readers that return one byte at a
				// time, and the last bytes together with io.EOF.
				requireSameRead(t, blockSize, func() io.Reader { return iotest.OneByteReader(strings.NewReader(in)) })
				requireSameRead(t, blockSize, func() io.Reader { return iotest.DataErrReader(strings.NewReader(in)) })
			})
		}
	}

	// The real block size: records up to just short of the first cut, then a
	// comment that ends k bytes before it, then each shape across it.
	var fill strings.Builder
	for fill.Len() < tsvBlockSize-200 {
		fill.WriteString(tsvLine + "\n")
	}
	for name, straddler := range map[string]string{
		"record":  tsvLine + "\n",
		"comment": "# " + strings.Repeat("c", 40) + "\n",
		"blanks":  "\n\n\n\n\n\n\n\n",
		"crlf":    tsvLine + "\r\n",
		"bad":     strings.Replace(tsvLine, "0.5", "nope", 1) + "\n",
	} {
		t.Run("cut/"+name, func(t *testing.T) {
			for _, k := range []int{1, 2, len(straddler) / 2, len(straddler) - 1} {
				comment := strings.Repeat("#", tsvBlockSize-fill.Len()-k-1) + "\n"
				in := fill.String() + comment + straddler + tsvLine + "\n" + tsvLine
				requireSameRead(t, tsvBlockSize, func() io.Reader { return strings.NewReader(in) })
			}
		})
	}
}

// TestReadTSVErrorNamesGlobalLine: the first error carries the line number
// counted from the start of the input, however many blocks precede it, and an
// earlier bad line wins over a later one in a block parsed before it.
func TestReadTSVErrorNamesGlobalLine(t *testing.T) {
	var b strings.Builder
	lines := 0
	for b.Len() < 3*tsvBlockSize {
		b.WriteString(tsvLine + "\n")
		lines++
	}
	b.WriteString(strings.Replace(tsvLine, "0.5", "1.5", 1) + "\n")
	lines++
	in := b.String() + tsvLine + "\njunk\n"
	_, err := ReadTSV(strings.NewReader(in))
	if want := fmt.Sprintf("triple: line %d: confidence 1.5 out of [0,1]", lines); err == nil || err.Error() != want {
		t.Fatalf("error %v, want %s", err, want)
	}
	requireSameRead(t, tsvBlockSize, func() io.Reader { return strings.NewReader(in) })
}

// TestReadTSVLineLimit: a line of maxTSVLine bytes is refused with
// bufio.ErrTooLong and one byte less is read, with or without a newline after
// it, and wherever the blocks are cut; a bad line before it is the error.
func TestReadTSVLineLimit(t *testing.T) {
	long := func(n int) string { return tsvLine[:len(tsvLine)-3] + strings.Repeat("9", n-len(tsvLine)+3) }
	for _, c := range []struct {
		name    string
		in      string
		tooLong bool
	}{
		{"at limit", tsvLine + "\n" + long(maxTSVLine) + "\n" + tsvLine + "\n", true},
		{"at limit, unterminated", long(maxTSVLine), true},
		{"over limit", tsvLine + "\n" + long(maxTSVLine+tsvBlockSize+7) + "\n", true},
		{"under limit", tsvLine + "\n" + long(maxTSVLine-1) + "\n" + tsvLine + "\n", false},
		{"under limit, unterminated", tsvLine + "\n" + long(maxTSVLine-1), false},
		{"bad line first", "junk\n" + long(maxTSVLine) + "\n", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, blockSize := range []int{tsvBlockSize, 1000, 3} {
				_, err := readTSV(strings.NewReader(c.in), blockSize)
				if errors.Is(err, bufio.ErrTooLong) != c.tooLong {
					t.Errorf("block size %d: error %v, want too long = %v", blockSize, err, c.tooLong)
				}
				requireSameRead(t, blockSize, func() io.Reader { return strings.NewReader(c.in) })
			}
		})
	}
}

// TestReadTSVReadError: a failed read is reported after the lines read before
// it, the unterminated one included, have been parsed — and only if they were
// all good.
func TestReadTSVReadError(t *testing.T) {
	for _, in := range []string{tsvLine + "\n" + tsvLine, tsvLine + "\njunk"} {
		for _, blockSize := range []int{tsvBlockSize, 7} {
			requireSameRead(t, blockSize, func() io.Reader {
				return io.MultiReader(strings.NewReader(in), iotest.ErrReader(errors.New("disk on fire")))
			})
		}
	}
	_, err := ReadTSV(io.MultiReader(strings.NewReader(tsvLine), iotest.ErrReader(errors.New("disk on fire"))))
	if err == nil || err.Error() != "triple: scan: disk on fire" {
		t.Errorf("error %v, want the read error", err)
	}
}

// TestParseTSVLineColumnCount pins the column splitter against strings.Split.
func TestParseTSVLineColumnCount(t *testing.T) {
	for n := 1; n <= 12; n++ {
		line := strings.Repeat("x\t", n-1) + "x"
		_, err := ParseTSVLine(line)
		if cols := len(strings.Split(line, "\t")); cols == 7 {
			if err != nil {
				t.Errorf("%d columns: %v", cols, err)
			}
		} else if want := fmt.Sprintf("got %d", cols); err == nil || !strings.HasSuffix(err.Error(), want) {
			// 8 columns of "x" fail on the confidence instead.
			if cols != 8 || err == nil {
				t.Errorf("%d columns: error %v, want ... %s", cols, err, want)
			}
		}
	}
	rec, err := ParseTSVLine("e\t\t\t\t\t\to\t")
	if err != nil || rec.Extractor != "e" || rec.Object != "o" || rec.Confidence != 0 {
		t.Errorf("empty columns and empty confidence: %#v, %v", rec, err)
	}
}

// FuzzReadTSV holds the block reader to the line reader on arbitrary bytes,
// with the blocks cut every few bytes so that any input spans many of them.
// testdata/fuzz/FuzzReadTSV seeds it.
func FuzzReadTSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte, blockSize uint8) {
		requireSameRead(t, int(blockSize)+1, func() io.Reader { return bytes.NewReader(in) })
	})
}
