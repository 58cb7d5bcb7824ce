// Package honeypot implements the measurement apparatus of Section 4: the
// honeypot accounts that infiltrate collusion networks, the automation
// that joins a network (install app → leak token → submit token), the
// request loop that "milks" likes and comments, the crawlers that log
// incoming and outgoing activity, and the membership estimator built on
// the milked data.
//
// The paper ran 22 honeypot accounts, one per collusion network, posting
// status updates and requesting likes continuously for three months; the
// set of unique accounts that liked a honeypot's posts is a lower-bound
// estimate of that network's membership (Table 4, Figure 4).
package honeypot

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/collusion"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/simclock"
	"repro/internal/socialgraph"
)

// Site is the slice of a collusion network the honeypot automation
// drives. *collusion.Network implements it directly; HTTPSite drives a
// network's website over HTTP.
type Site interface {
	Name() string
	SubmitToken(accountID, token string) error
	Challenge(accountID string) string
	RequestLikes(accountID, postID, captchaAnswer string) (int, error)
	RequestComments(accountID, postID, captchaAnswer string) (int, error)
	// CompleteAdWall walks the site's ad redirect chain (a no-op on sites
	// without one), earning the allowance some networks demand before
	// each request.
	CompleteAdWall(accountID string) error
}

// SolveArithmetic answers the simulated "a+b=" CAPTCHA challenges (the
// paper used a commercial solving service); it returns "" on anything it
// cannot parse.
func SolveArithmetic(challenge string) string {
	var a, b int
	if _, err := fmt.Sscanf(challenge, "%d+%d=", &a, &b); err != nil {
		return ""
	}
	return strconv.Itoa(a + b)
}

// Honeypot is one honeypot account infiltrating one collusion network.
type Honeypot struct {
	Account socialgraph.Account

	clock   simclock.Clock
	graph   *socialgraph.Store
	client  platform.Client
	site    Site
	app     apps.App
	token   string
	postIDs []string
	joined  bool
}

// Config assembles a honeypot.
type Config struct {
	Clock simclock.Clock
	// Graph is the platform's store when running in-process. Leave nil
	// when the honeypot drives a remote platform over HTTP: posting and
	// crawling then go through Client, and AccountID must name an
	// existing platform account.
	Graph  *socialgraph.Store
	Client platform.Client
	Site   Site
	// App is the application the collusion network exploits; the honeypot
	// installs it during Join.
	App apps.App
	// Name and Country label the honeypot account (in-process mode).
	Name    string
	Country string
	// AccountID is the pre-registered account to act as (remote mode).
	AccountID string
}

// New registers a fresh honeypot account (or binds to an existing one in
// remote mode). The account performs no activity other than the milking
// loop, so everything that happens to it is attributable to the collusion
// network (paper footnote 3).
func New(cfg Config) *Honeypot {
	name := cfg.Name
	if name == "" {
		name = "honeypot"
	}
	var acct socialgraph.Account
	if cfg.Graph != nil {
		acct = cfg.Graph.CreateAccount(name, cfg.Country, cfg.Clock.Now())
	} else {
		acct = socialgraph.Account{ID: cfg.AccountID, Name: name, Country: cfg.Country}
	}
	return &Honeypot{
		Account: acct,
		clock:   cfg.Clock,
		graph:   cfg.Graph,
		client:  cfg.Client,
		site:    cfg.Site,
		app:     cfg.App,
	}
}

// Join walks the collusion network's onboarding (Figure 3): install the
// exploited application via the implicit flow, copy the leaked token, and
// submit it to the site.
func (h *Honeypot) Join() error {
	tok, err := h.client.AuthorizeImplicit(h.app.ID, h.app.RedirectURI, h.Account.ID,
		[]string{apps.PermPublicProfile, apps.PermPublishActions})
	if err != nil {
		return fmt.Errorf("honeypot: implicit flow: %w", err)
	}
	h.token = tok
	if err := h.site.SubmitToken(h.Account.ID, tok); err != nil {
		return fmt.Errorf("honeypot: submit token: %w", err)
	}
	h.joined = true
	return nil
}

// Rejoin refreshes the honeypot's token and resubmits it — needed after
// token invalidation sweeps, since the honeypot must keep milking.
func (h *Honeypot) Rejoin() error { return h.Join() }

// Token returns the honeypot's current leaked token (the countermeasure
// pipeline invalidates milked tokens, including, eventually, this one).
func (h *Honeypot) Token() string { return h.token }

// PostStatus publishes a status update on the honeypot's own timeline.
// In-process this is first-party activity (a direct store write, not via
// the exploited app); in remote mode the post goes through the Graph API
// with the honeypot's own token.
func (h *Honeypot) PostStatus(message string) (socialgraph.Post, error) {
	if h.graph != nil {
		post, err := h.graph.CreatePost(h.Account.ID, message, socialgraph.WriteMeta{At: h.clock.Now()})
		if err != nil {
			return socialgraph.Post{}, err
		}
		h.postIDs = append(h.postIDs, post.ID)
		return post, nil
	}
	id, err := h.client.Publish(h.token, message, "")
	if err != nil {
		return socialgraph.Post{}, err
	}
	post := socialgraph.Post{ID: id, AuthorID: h.Account.ID, Message: message, CreatedAt: h.clock.Now()}
	h.postIDs = append(h.postIDs, post.ID)
	return post, nil
}

// MilkOnce posts one status update and requests likes on it, solving a
// CAPTCHA when the site demands one. It returns the post ID and the
// number of likes the site claims to have delivered.
func (h *Honeypot) MilkOnce() (postID string, delivered int, err error) {
	if !h.joined {
		return "", 0, errors.New("honeypot: not joined")
	}
	post, err := h.PostStatus(fmt.Sprintf("honeypot status %d", len(h.postIDs)+1))
	if err != nil {
		return "", 0, err
	}
	delivered, err = h.requestWithCaptcha(post.ID, h.site.RequestLikes)
	return post.ID, delivered, err
}

// MilkComments posts one status update and requests auto-comments on it.
func (h *Honeypot) MilkComments() (postID string, delivered int, err error) {
	if !h.joined {
		return "", 0, errors.New("honeypot: not joined")
	}
	post, err := h.PostStatus(fmt.Sprintf("honeypot comment bait %d", len(h.postIDs)+1))
	if err != nil {
		return "", 0, err
	}
	delivered, err = h.requestWithCaptcha(post.ID, h.site.RequestComments)
	return post.ID, delivered, err
}

// requestWithCaptcha issues a request, automatically clearing the site's
// friction gates: ad redirect walls are walked and CAPTCHAs solved, with
// a bounded number of retries (real automation did exactly this via
// solving services and scripted redirects).
func (h *Honeypot) requestWithCaptcha(postID string, request func(string, string, string) (int, error)) (int, error) {
	answer := ""
	var delivered int
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		delivered, err = request(h.Account.ID, postID, answer)
		switch {
		case err == nil:
			return delivered, nil
		case strings.Contains(err.Error(), "ad redirect"):
			if werr := h.site.CompleteAdWall(h.Account.ID); werr != nil {
				return 0, werr
			}
		case strings.Contains(err.Error(), "CAPTCHA"):
			answer = SolveArithmetic(h.site.Challenge(h.Account.ID))
		default:
			return delivered, err
		}
	}
	return delivered, err
}

// PostIDs returns the honeypot's submitted posts in order.
func (h *Honeypot) PostIDs() []string {
	out := make([]string, len(h.postIDs))
	copy(out, h.postIDs)
	return out
}

// IncomingLikes crawls the honeypot's timeline and returns, per post, the
// likes received (the data the membership estimator consumes).
func (h *Honeypot) IncomingLikes() map[string][]socialgraph.Like {
	out := make(map[string][]socialgraph.Like, len(h.postIDs))
	for _, id := range h.postIDs {
		if h.graph != nil {
			out[id] = h.graph.Likes(id)
			continue
		}
		records, err := h.client.LikesOf(h.token, id)
		if err != nil {
			continue
		}
		likes := make([]socialgraph.Like, len(records))
		for i, r := range records {
			likes[i] = socialgraph.Like{AccountID: r.AccountID, ObjectID: id, At: r.At}
		}
		out[id] = likes
	}
	return out
}

// IncomingComments crawls the comments received per post.
func (h *Honeypot) IncomingComments() map[string][]socialgraph.Comment {
	out := make(map[string][]socialgraph.Comment, len(h.postIDs))
	for _, id := range h.postIDs {
		if h.graph != nil {
			out[id] = h.graph.Comments(id)
			continue
		}
		records, err := h.client.CommentsOf(h.token, id)
		if err != nil {
			continue
		}
		comments := make([]socialgraph.Comment, len(records))
		for i, r := range records {
			comments[i] = socialgraph.Comment{ID: r.ID, PostID: id, AccountID: r.AccountID, Message: r.Message, At: r.At}
		}
		out[id] = comments
	}
	return out
}

// OutgoingActivities crawls the honeypot's own activity log, excluding
// its first-party status posts: what remains is reputation manipulation
// performed *with* the honeypot's token by the collusion network
// (Table 4's outgoing columns, Figure 7). Remote mode returns nil: the
// simulated Graph API does not expose another account's activity log.
func (h *Honeypot) OutgoingActivities() []socialgraph.Activity {
	if h.graph == nil {
		return nil
	}
	var out []socialgraph.Activity
	for _, act := range h.graph.ActivityLog(h.Account.ID) {
		if act.Verb == socialgraph.VerbPost {
			continue
		}
		out = append(out, act)
	}
	return out
}

// Estimator accumulates milking observations for one collusion network
// and derives the Table 4 row, the Figure 4 curve, and the Figure 6
// histogram.
type Estimator struct {
	tracker *metrics.UniqueTracker
	// likesPerAccount counts how many of the honeypot's posts each
	// account liked (Figure 6).
	likesPerAccount map[string]int
	postsSubmitted  int
	totalLikes      int
}

// NewEstimator returns an empty estimator.
func NewEstimator() *Estimator {
	return &Estimator{
		tracker:         metrics.NewUniqueTracker(),
		likesPerAccount: make(map[string]int),
	}
}

// ObservePost ingests the crawled likers of one milked post.
func (e *Estimator) ObservePost(likers []string) {
	e.tracker.Step(likers)
	e.postsSubmitted++
	e.totalLikes += len(likers)
	for _, id := range likers {
		e.likesPerAccount[id]++
	}
}

// MembershipEstimate returns the number of unique accounts observed so
// far — a strict lower bound on the network's membership.
func (e *Estimator) MembershipEstimate() int {
	return int(e.tracker.Unique())
}

// PostsSubmitted returns how many posts have been ingested.
func (e *Estimator) PostsSubmitted() int { return e.postsSubmitted }

// TotalLikes returns the total likes observed.
func (e *Estimator) TotalLikes() int { return e.totalLikes }

// AvgLikesPerPost returns the mean likes per milked post.
func (e *Estimator) AvgLikesPerPost() float64 {
	if e.postsSubmitted == 0 {
		return 0
	}
	return float64(e.totalLikes) / float64(e.postsSubmitted)
}

// Curve returns the cumulative (likes, unique accounts) series per post
// index — Figure 4.
func (e *Estimator) Curve() []metrics.UniquePoint {
	return e.tracker.Points()
}

// PostsLikedHistogram returns the Figure 6 histogram: for each account,
// how many of the honeypot's posts it liked.
func (e *Estimator) PostsLikedHistogram() *metrics.IntHistogram {
	h := metrics.NewIntHistogram()
	for _, n := range e.likesPerAccount {
		h.Observe(n)
	}
	return h
}

// AccountsLikingAtMost returns the fraction of observed accounts that
// liked at most k posts (the paper reports 76% of hublaa.me accounts and
// 30% of official-liker.net accounts at k=1 during the clustering window).
func (e *Estimator) AccountsLikingAtMost(k int) float64 {
	if len(e.likesPerAccount) == 0 {
		return 0
	}
	n := 0
	for _, c := range e.likesPerAccount {
		if c <= k {
			n++
		}
	}
	return float64(n) / float64(len(e.likesPerAccount))
}

// OutgoingSummary aggregates a honeypot's outgoing activity log into the
// Table 4 outgoing columns.
type OutgoingSummary struct {
	Activities     int
	TargetAccounts int
	TargetPages    int
}

// SummarizeOutgoing computes the outgoing columns from crawled activity.
func SummarizeOutgoing(acts []socialgraph.Activity) OutgoingSummary {
	accounts := make(map[string]bool)
	pages := make(map[string]bool)
	for _, a := range acts {
		if kind, ok := ids.KindOf(a.TargetID); ok && kind == ids.KindPage {
			pages[a.TargetID] = true
		} else {
			accounts[a.TargetID] = true
		}
	}
	return OutgoingSummary{
		Activities:     len(acts),
		TargetAccounts: len(accounts),
		TargetPages:    len(pages),
	}
}

// HourlySeries buckets activities into hours since origin — Figure 7.
func HourlySeries(acts []socialgraph.Activity, origin time.Time) *metrics.Series {
	s := metrics.NewSeries(origin, time.Hour)
	for _, a := range acts {
		s.Observe(a.At, 1)
	}
	return s
}

var _ Site = (*collusion.Network)(nil)
