package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Prometheus text exposition format, version 0.0.4: for every family a
// # HELP line, a # TYPE line, then one sample line per series —
//
//	name{label="value",...} 1027
//
// Histograms expand into cumulative name_bucket{le="..."} samples plus
// name_sum and name_count. HELP text escapes backslash and newline; label
// values additionally escape the double quote.

// ContentType is the scrape response content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {a="x",b="y"}; extra (used for the histogram le
// label) is appended last. Returns "" for an unlabeled series.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraName, escapeLabel(extraValue))
	}
	b.WriteByte('}')
	return b.String()
}

// WriteText writes every registered family in exposition format. Families
// appear in registration order; series within a family are sorted by label
// values, so the output is deterministic for a given metric state.
func (r *Registry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.families() {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind.promType())
		for _, s := range f.snapshotSeries() {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labelString(f.labels, s.values, "", ""), s.c.Value())
			case kindGauge:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, labelString(f.labels, s.values, "", ""), formatFloat(s.g.Value()))
			case kindCounterFunc, kindGaugeFunc:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, labelString(f.labels, s.values, "", ""), formatFloat(s.fn()))
			case kindHistogram:
				cum, count, sum := s.h.Snapshot()
				for i, bound := range s.h.bounds {
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.values, "le", formatFloat(bound)), cum[i])
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.values, "le", "+Inf"), cum[len(cum)-1])
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, labelString(f.labels, s.values, "", ""), formatFloat(sum))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name, labelString(f.labels, s.values, "", ""), count)
			}
		}
	}
	return bw.Flush()
}

// Handler returns the /metrics scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		// The scrape body is assembled per request; a client that hangs up
		// mid-scrape costs nothing but the aborted write.
		_ = r.WriteText(w)
	})
}

// Sample is one parsed exposition line.
type Sample struct {
	// Name is the full sample name, including any _bucket/_sum/_count
	// suffix on histogram samples.
	Name   string
	Labels map[string]string
	Value  float64
}

// Family is one parsed metric family.
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// ParseText parses Prometheus text exposition, validating that every
// sample belongs to a declared family (histogram samples may carry the
// _bucket/_sum/_count suffixes) and that HELP/TYPE precede samples. It is
// the verification half of WriteText: scrape tests parse the scraped body
// back through it.
func ParseText(r io.Reader) (map[string]*Family, error) {
	fams := make(map[string]*Family)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // other comments are legal and ignored
			}
			name := fields[2]
			f := fams[name]
			if f == nil {
				f = &Family{Name: name}
				fams[name] = f
			}
			if fields[1] == "HELP" {
				rest := ""
				if len(fields) == 4 {
					rest = fields[3]
				}
				f.Help = unescapeHelp(rest)
			} else {
				if len(fields) < 4 {
					return nil, fmt.Errorf("obs: line %d: TYPE without a type", lineNo)
				}
				f.Type = fields[3]
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		f := fams[s.Name]
		if f == nil {
			base := s.Name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if t := strings.TrimSuffix(s.Name, suf); t != s.Name && fams[t] != nil && fams[t].Type == "histogram" {
					base = t
					break
				}
			}
			f = fams[base]
			if f == nil {
				return nil, fmt.Errorf("obs: line %d: sample %q precedes its HELP/TYPE declaration", lineNo, s.Name)
			}
		}
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, f := range fams {
		if f.Type == "" {
			return nil, fmt.Errorf("obs: family %s has no TYPE line", f.Name)
		}
	}
	return fams, nil
}

func unescapeHelp(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	if !nameRE.MatchString(s.Name) {
		return s, fmt.Errorf("invalid sample name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, " ,")
			if rest == "" {
				return s, fmt.Errorf("unterminated label set in %q", line)
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				return s, fmt.Errorf("malformed label in %q", line)
			}
			name := rest[:eq]
			if !nameRE.MatchString(name) {
				return s, fmt.Errorf("invalid label name %q", name)
			}
			var val strings.Builder
			j := eq + 2
			for {
				if j >= len(rest) {
					return s, fmt.Errorf("unterminated label value in %q", line)
				}
				c := rest[j]
				if c == '\\' && j+1 < len(rest) {
					switch rest[j+1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return s, fmt.Errorf("bad escape in label value in %q", line)
					}
					j += 2
					continue
				}
				if c == '"' {
					j++
					break
				}
				val.WriteByte(c)
				j++
			}
			s.Labels[name] = val.String()
			rest = rest[j:]
		}
	}
	rest = strings.TrimSpace(rest)
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return s, fmt.Errorf("sample %q has no value", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("sample %q value: %v", line, err)
	}
	s.Value = v
	return s, nil
}

// SampleValue finds the value of the sample with the given name whose
// labels include every given key=value pair (extra labels on the sample
// are allowed). The bool reports whether such a sample exists.
func SampleValue(fams map[string]*Family, name string, labels map[string]string) (float64, bool) {
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name != name {
				continue
			}
			ok := true
			for k, v := range labels {
				if s.Labels[k] != v {
					ok = false
					break
				}
			}
			if ok {
				return s.Value, true
			}
		}
	}
	return 0, false
}
