package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Scrape fetches and parses the Prometheus endpoint of one debug
// address ("host:port" or a full URL). rankd's kill -9 smoke calls this
// for every rank post-run.
func Scrape(addr string) (map[string]float64, error) {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + "/metrics"
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("obs: scrape %s: status %s", url, resp.Status)
	}
	return ParseProm(resp.Body)
}

// ParseProm parses Prometheus text exposition into a flat map of sample
// name (labels stripped, _bucket/_sum/_count suffixes kept) to value.
// Samples that differ only in labels are summed.
func ParseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// "name{labels} value" or "name value".
		name := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			name = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: bad sample %q: %w", line, err)
		}
		out[name] += v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// BaseNames reduces a ParseProm map to the sorted set of metric base
// names: histogram series collapse (_bucket/_sum/_count stripped). This
// is the name set the drift gate diffs against the docs catalog.
func BaseNames(samples map[string]float64) []string {
	set := make(map[string]bool)
	for name := range samples {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if s := strings.TrimSuffix(name, suf); s != name {
				name = s
				break
			}
		}
		set[name] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// FormatReport renders per-rank scrapes as a per-section report: metrics
// group by their first name segment (fabric, crisis, tcp, ...), ranks
// become columns. Zero-valued rows are elided to keep chaos logs
// readable.
func FormatReport(byRank map[int]map[string]float64) string {
	ranks := make([]int, 0, len(byRank))
	for r := range byRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)

	names := make(map[string]bool)
	for _, m := range byRank {
		for n := range m {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	var b strings.Builder
	fmt.Fprintf(&b, "%-34s", "metric")
	for _, r := range ranks {
		fmt.Fprintf(&b, " %12s", fmt.Sprintf("rank%d", r))
	}
	b.WriteByte('\n')
	section := ""
	for _, n := range sorted {
		nz := false
		for _, r := range ranks {
			if byRank[r][n] != 0 {
				nz = true
				break
			}
		}
		if !nz {
			continue
		}
		if s, _, _ := strings.Cut(n, "_"); s != section {
			section = s
			fmt.Fprintf(&b, "-- %s --\n", section)
		}
		fmt.Fprintf(&b, "%-34s", n)
		for _, r := range ranks {
			v, ok := byRank[r][n]
			if !ok {
				fmt.Fprintf(&b, " %12s", "-")
				continue
			}
			fmt.Fprintf(&b, " %12s", strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
