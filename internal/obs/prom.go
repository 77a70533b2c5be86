package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus exposition helpers. The repo's counter names use dots and
// dashes ("netem.drop-loss"), which are illegal in Prometheus metric
// names, and strategy labels carry raw spec text (backslashes, quotes,
// arbitrary UTF-8), which must be escaped per the exposition format —
// %q Go-quoting is close but not identical (it escapes non-ASCII,
// which Prometheus forbids changing), so scrapers choke on it.

// PromName sanitizes s into a legal Prometheus metric name: every rune
// outside [a-zA-Z0-9_:] becomes '_', and a leading digit gains a '_'
// prefix.
func PromName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(s) + 1)
	for i, r := range s {
		legal := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if legal {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// PromLabel escapes s for use inside a label value's double quotes:
// backslash, double quote, and newline get backslash escapes; every
// other byte — including non-ASCII UTF-8 — passes through verbatim, as
// the exposition format requires.
func PromLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// PromSample is one sample line of a metric family.
type PromSample struct {
	// Suffix extends the family name ("_bucket", "_sum", "_count");
	// empty for a plain counter or gauge sample.
	Suffix string
	// Labels alternate label name and raw value; WriteFamily escapes
	// the values through PromLabel.
	Labels []string
	// Value is the formatted sample value.
	Value string
}

// PromInt is an integer-valued sample; labels alternate name and raw
// value.
func PromInt(v int64, labels ...string) PromSample {
	return PromSample{Labels: labels, Value: strconv.FormatInt(v, 10)}
}

// PromFloat is a float-valued sample in shortest %g form; labels
// alternate name and raw value.
func PromFloat(v float64, labels ...string) PromSample {
	return PromSample{Labels: labels, Value: strconv.FormatFloat(v, 'g', -1, 64)}
}

// WriteFamily writes one metric family in Prometheus text exposition
// format: its # HELP and # TYPE lines, then every sample contiguously.
// It is the module's only writer of exposition text, so every /metrics
// body shares one header shape and one label escaping. A family with no
// samples still writes its header.
func WriteFamily(w io.Writer, name, typ, help string, samples ...PromSample) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, s := range samples {
		b.WriteString(name)
		b.WriteString(s.Suffix)
		for i := 0; i+1 < len(s.Labels); i += 2 {
			sep := ","
			if i == 0 {
				sep = "{"
			}
			fmt.Fprintf(&b, "%s%s=\"%s\"", sep, s.Labels[i], PromLabel(s.Labels[i+1]))
		}
		if len(s.Labels) > 1 {
			b.WriteByte('}')
		}
		b.WriteByte(' ')
		b.WriteString(s.Value)
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteProm renders the snapshot in Prometheus exposition format:
// counters as "<prefix><name>_total", gauges as "<prefix><name>", and
// histograms as cumulative "_bucket"/"_sum"/"_count" families, names
// sanitized through PromName and sorted so output is diff-stable.
func (s Snapshot) WriteProm(w io.Writer, prefix string) error {
	for _, k := range s.Keys() {
		v := PromSample{Value: strconv.FormatUint(s.Counters[k], 10)}
		if err := WriteFamily(w, PromName(prefix+k)+"_total", "counter", "Counter "+k+".", v); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(s.Gauges) {
		if err := WriteFamily(w, PromName(prefix+k), "gauge", "Gauge "+k+".", PromInt(s.Gauges[k])); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		samples := make([]PromSample, 0, len(h.Counts)+2)
		var cum uint64
		for i, n := range h.Counts {
			cum += n
			le := "+Inf"
			if i < len(h.Bounds) {
				le = strconv.FormatUint(h.Bounds[i], 10)
			}
			samples = append(samples, PromSample{Suffix: "_bucket", Labels: []string{"le", le}, Value: strconv.FormatUint(cum, 10)})
		}
		samples = append(samples,
			PromSample{Suffix: "_sum", Value: strconv.FormatUint(h.Sum, 10)},
			PromSample{Suffix: "_count", Value: strconv.FormatUint(h.Count, 10)})
		if err := WriteFamily(w, PromName(prefix+k), "histogram", "Histogram "+k+".", samples...); err != nil {
			return err
		}
	}
	return nil
}
