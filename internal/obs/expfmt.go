package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WriteText serializes every family in Prometheus text exposition format
// (version 0.0.4). Output is deterministic: families sort by name, series
// by label values, so golden tests and diff-based scrape checks are stable.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if err := f.writeText(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeText(w io.Writer) error {
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}

	f.mu.Lock()
	collect := f.collect
	sers := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		sers = append(sers, s)
	}
	f.mu.Unlock()

	if collect != nil {
		samples := collect()
		sort.Slice(samples, func(i, j int) bool {
			return lessStrings(samples[i].Labels, samples[j].Labels)
		})
		for _, s := range samples {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, formatLabels(f.labels, s.Labels), formatFloat(s.Value)); err != nil {
				return err
			}
		}
		return nil
	}

	sort.Slice(sers, func(i, j int) bool {
		return lessStrings(sers[i].labelValues, sers[j].labelValues)
	})
	for _, s := range sers {
		switch f.kind {
		case KindCounter:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, formatLabels(f.labels, s.labelValues), s.counter.Load()); err != nil {
				return err
			}
		case KindGauge:
			v := math.Float64frombits(s.gaugeBits.Load())
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, formatLabels(f.labels, s.labelValues), formatFloat(v)); err != nil {
				return err
			}
		case KindHistogram:
			if err := f.writeHistogram(w, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram emits cumulative _bucket lines (ending in le="+Inf"),
// then _sum and _count.
func (f *family) writeHistogram(w io.Writer, s *series) error {
	var cum int64
	for i, ub := range f.buckets {
		cum += s.hist.counts[i].Load()
		labels := formatLabels(append(f.labels, "le"), append(append([]string(nil), s.labelValues...), formatFloat(ub)))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labels, cum); err != nil {
			return err
		}
	}
	cum += s.hist.counts[len(f.buckets)].Load()
	labels := formatLabels(append(f.labels, "le"), append(append([]string(nil), s.labelValues...), "+Inf"))
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labels, cum); err != nil {
		return err
	}
	sum := math.Float64frombits(s.hist.sumBits.Load())
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, formatLabels(f.labels, s.labelValues), formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, formatLabels(f.labels, s.labelValues), cum)
	return err
}

// formatLabels renders {name="value",...}, or "" with no labels. Label
// values escape backslash, double-quote, and newline per the exposition
// spec.
func formatLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabelValue(v string) string { return labelEscaper.Replace(v) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(v string) string { return helpEscaper.Replace(v) }

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func lessStrings(a, b []string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
