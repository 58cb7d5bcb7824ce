package experiments

import (
	"errors"

	"repro/internal/collusion"
	"repro/internal/core"
	"repro/internal/lexical"
	"repro/internal/workload"
)

// Table6Config parameterises the comment-milking campaign.
type Table6Config struct {
	Scale        int
	PostsDivisor int
	MinPosts     int
	Seed         int64
}

func (c Table6Config) withDefaults() Table6Config {
	if c.Scale <= 0 {
		c.Scale = 100
	}
	if c.PostsDivisor <= 0 {
		c.PostsDivisor = 4
	}
	if c.MinPosts <= 0 {
		c.MinPosts = 15
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Table6Row is one network's comment analysis.
type Table6Row struct {
	Network            string
	Posts              int
	Report             lexical.Report
	AvgCommentsPerPost float64
}

// Table6Result carries the rendered table and raw rows.
type Table6Result struct {
	Table Table
	Rows  []Table6Row
}

// Table6 reproduces Table 6: milk auto-comments from the seven collusion
// networks that offer them and run the lexical analysis — comment
// uniqueness, lexical richness, ARI, and non-dictionary word rate.
func Table6(cfg Table6Config) (Table6Result, error) {
	cfg = cfg.withDefaults()
	var commentNetworks []string
	for _, spec := range workload.Networks() {
		if spec.CommentsPerRequest > 0 {
			commentNetworks = append(commentNetworks, spec.Name)
		}
	}
	study, err := core.NewStudy(workload.Options{
		Scale:    cfg.Scale,
		Networks: commentNetworks,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return Table6Result{}, err
	}

	quota := make(map[string]int)
	for _, ni := range study.Scenario.Networks {
		q := ni.Spec.CommentPostsSubmitted / cfg.PostsDivisor
		if q < cfg.MinPosts {
			q = cfg.MinPosts
		}
		quota[ni.Spec.Name] = q
	}

	posts := make(map[string][]string) // network -> comment-bait post IDs
	done := make(map[string]int)
	for hour := 0; hour < 24*30; hour++ {
		allDone := true
		for _, ni := range study.Scenario.Networks {
			name := ni.Spec.Name
			if done[name] >= quota[name] {
				continue
			}
			allDone = false
			hp := study.Honeypots[name]
			postID, _, err := hp.MilkComments()
			switch {
			case err == nil:
				posts[name] = append(posts[name], postID)
				done[name]++
			case errors.Is(err, collusion.ErrDailyLimit),
				errors.Is(err, collusion.ErrOutage):
				// Expected friction; retry next hour.
			default:
				return Table6Result{}, err
			}
		}
		if allDone {
			break
		}
		study.AdvanceHour()
	}

	table := Table{
		ID:    "table6",
		Title: "Lexical analysis of comments provided by collusion networks",
		Columns: []string{
			"Collusion Network", "Posts", "Avg Comments/Post", "Comments", "Unique",
			"% Unique", "Words", "Unique Words", "Richness %", "ARI", "% Non-dict",
		},
	}
	var rows []Table6Row
	var all []string
	totalPosts := 0
	for _, ni := range study.Scenario.Networks {
		name := ni.Spec.Name
		var corpus []string
		for _, postID := range posts[name] {
			for _, c := range study.Scenario.Platform.Graph.Comments(postID) {
				corpus = append(corpus, c.Message)
			}
		}
		all = append(all, corpus...)
		totalPosts += len(posts[name])
		report := lexical.Analyze(corpus)
		row := Table6Row{Network: name, Posts: len(posts[name]), Report: report}
		if row.Posts > 0 {
			row.AvgCommentsPerPost = float64(report.Comments) / float64(row.Posts)
		}
		rows = append(rows, row)
		table.Rows = append(table.Rows, tableSixCells(name, row))
	}
	allReport := lexical.Analyze(all)
	allRow := Table6Row{Network: "All", Posts: totalPosts, Report: allReport}
	if totalPosts > 0 {
		allRow.AvgCommentsPerPost = float64(allReport.Comments) / float64(totalPosts)
	}
	rows = append(rows, allRow)
	table.Rows = append(table.Rows, tableSixCells("All", allRow))
	return Table6Result{Table: table, Rows: rows}, nil
}

func tableSixCells(name string, r Table6Row) []string {
	return []string{
		name,
		fmtInt(r.Posts),
		fmtFloat(r.AvgCommentsPerPost, 0),
		fmtInt(r.Report.Comments),
		fmtInt(r.Report.UniqueComments),
		fmtFloat(r.Report.PctUniqueComments, 1),
		fmtInt(r.Report.Words),
		fmtInt(r.Report.UniqueWords),
		fmtFloat(r.Report.LexicalRichness, 1),
		fmtFloat(r.Report.ARI, 1),
		fmtFloat(r.Report.PctNonDictionary, 1),
	}
}
