package platform

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/graphapi"
	"repro/internal/obs"
	"repro/internal/provider"
	"repro/internal/redact"
)

// HTTPClient implements Client over the platform's HTTP surface. It mimics
// the behaviour of the collusion network tooling: it walks the dialog,
// refuses to follow the final redirect, and scrapes the access token out
// of the Location fragment — the "view-source" trick of Figure 3.
type HTTPClient struct {
	base     string
	prov     provider.Provider
	maxBatch int
	http     *http.Client
}

// NewHTTPClient returns a Client speaking HTTP to the default provider's
// platform at baseURL.
func NewHTTPClient(baseURL string) *HTTPClient {
	return NewHTTPClientFor(provider.Default(), baseURL)
}

// idleConnsPerHost is how many idle keep-alive connections a client keeps
// to its platform. One client serves concurrent callers (collusiond
// handles member requests in parallel); with net/http's default of 2,
// every burst of 4 concurrent /batch calls dials new connections.
const idleConnsPerHost = 4

// drainLimit caps how much of an unread response body closeBody reads.
// net/http returns a connection to the idle pool only once its body has
// been read to EOF; a longer body is cheaper to drop with its connection.
const drainLimit = 64 << 10

// NewHTTPClientFor returns a Client speaking the given provider's dialect
// to the platform at baseURL: error codes decode into the provider's kind
// space and batches chunk at the provider's op cap. baseURL may carry a
// path prefix (e.g. a Multi mount like http://host/pictogram).
func NewHTTPClientFor(prov provider.Provider, baseURL string) *HTTPClient {
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = idleConnsPerHost
	return &HTTPClient{
		base:     strings.TrimRight(baseURL, "/"),
		prov:     prov,
		maxBatch: prov.MaxBatchOps(),
		http: &http.Client{
			Transport: transport,
			Timeout:   30 * time.Second,
			CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			},
		},
	}
}

// apiError decodes a Graph API error response into an error value.
func (c *HTTPClient) apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, drainLimit))
	return c.envelopeError(resp.StatusCode, body)
}

// envelopeError decodes a Graph API error envelope, standalone or embedded
// in a batch result, into the *graphapi.APIError a LocalClient call
// returns, classifying the provider-specific code into a neutral kind. A
// body that is not an envelope becomes a plain HTTP error.
func (c *HTTPClient) envelopeError(status int, body []byte) error {
	var env struct {
		Error struct {
			Message string `json:"message"`
			Type    string `json:"type"`
			Code    int    `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Message == "" {
		return fmt.Errorf("platform: HTTP %d: %s", status, strings.TrimSpace(string(body)))
	}
	e := env.Error
	return &graphapi.APIError{Code: e.Code, Type: e.Type, Message: e.Message, Kind: c.prov.KindOfCode(e.Code)}
}

// closeBody reads what is left of resp's body, up to drainLimit, and
// closes it, so the connection goes back to the idle pool instead of
// being torn down. call and authorize are its only callers: every request
// goes through one of them.
func closeBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit))
	_ = resp.Body.Close() // a read-only body; nothing to lose on Close
}

// tokenForm is the URL-encoded form of a call that carries only a token.
func tokenForm(token string) string {
	return "access_token=" + url.QueryEscape(token)
}

// authorize walks the OAuth dialog with the given response_type and
// returns the redirect target, from which the caller scrapes the
// credential.
func (c *HTTPClient) authorize(appID, redirectURI, accountID, responseType string, scopes []string) (*url.URL, error) {
	q := url.Values{}
	q.Set("client_id", appID)
	q.Set("redirect_uri", redirectURI)
	q.Set("response_type", responseType)
	q.Set("account_id", accountID)
	q.Set("scope", strings.Join(scopes, ","))
	resp, err := c.do(nil, http.MethodGet, "/dialog/oauth", q.Encode(), "")
	if err != nil {
		return nil, err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusFound {
		return nil, c.apiError(resp)
	}
	return url.Parse(resp.Header.Get("Location"))
}

// AuthorizeImplicit implements Client by scraping the token from the
// dialog redirect fragment — the "copy the token from the address bar"
// workflow of Figure 3.
func (c *HTTPClient) AuthorizeImplicit(appID, redirectURI, accountID string, scopes []string) (string, error) {
	loc, err := c.authorize(appID, redirectURI, accountID, "token", scopes)
	if err != nil {
		return "", err
	}
	frag, err := url.ParseQuery(loc.Fragment)
	if err != nil {
		return "", err
	}
	tok := frag.Get("access_token")
	if tok == "" {
		// The redirect fragment may carry other credentials even when
		// access_token is absent; never quote the raw URL into an error.
		return "", fmt.Errorf("platform: no access_token in redirect %q", redact.URL(loc))
	}
	return tok, nil
}

// AuthorizeCode implements Client by walking the dialog with
// response_type=code and scraping the one-time code from the redirect
// query. No credential leaks here: the code is single-use and bound to
// the app, which is why code-flow-only providers resist milking.
func (c *HTTPClient) AuthorizeCode(appID, redirectURI, accountID string, scopes []string) (string, error) {
	loc, err := c.authorize(appID, redirectURI, accountID, "code", scopes)
	if err != nil {
		return "", err
	}
	code := loc.Query().Get("code")
	if code == "" {
		return "", fmt.Errorf("platform: no code in redirect %q", redact.URL(loc))
	}
	return code, nil
}

// ExchangeCode implements Client against POST /oauth/access_token.
func (c *HTTPClient) ExchangeCode(appID, appSecret, redirectURI, code string) (string, error) {
	form := url.Values{
		"client_id":     {appID},
		"client_secret": {appSecret},
		"redirect_uri":  {redirectURI},
		"code":          {code},
	}
	var body struct {
		AccessToken string `json:"access_token"`
	}
	if err := c.call(nil, http.MethodPost, "/oauth/access_token", form.Encode(), "", &body); err != nil {
		return "", err
	}
	return body.AccessToken, nil
}

// do sends one request: a POST carrying form as its body, or a GET
// carrying it as the query; form is already URL-encoded. ip, when set,
// rides in X-Forwarded-For as the source address to attribute the call
// to. The span carried by ctx (if any; ctx may be nil) is advertised via
// the X-Trace-Id / X-Parent-Span headers so the server-side span tree
// joins the caller's trace.
func (c *HTTPClient) do(ctx context.Context, method, path, form, ip string) (*http.Response, error) {
	var req *http.Request
	var err error
	if method == http.MethodPost {
		req, err = http.NewRequest(method, c.base+path, strings.NewReader(form))
		if err == nil {
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		}
	} else {
		u := c.base + path
		if form != "" {
			u += "?" + form
		}
		req, err = http.NewRequest(method, u, nil)
	}
	if err != nil {
		return nil, err
	}
	if ip != "" {
		req.Header.Set("X-Forwarded-For", ip)
	}
	if span := obs.SpanFromContext(ctx); span != nil {
		req.Header.Set(obs.HeaderTraceID, span.TraceID)
		req.Header.Set(obs.HeaderParentSpan, span.SpanID)
	}
	resp, err := c.http.Do(req)
	if uerr, ok := err.(*url.Error); ok {
		// Do's errors quote the request URL, whose query carries a GET's
		// token.
		uerr.URL = redact.URLString(uerr.URL)
	}
	return resp, err
}

// call sends one request through do and releases the response through
// closeBody on every path. A non-200 answer becomes its decoded error
// envelope; a 200 answer is decoded into out, or, when out is nil (a
// like's ack), only drained.
func (c *HTTPClient) call(ctx context.Context, method, path, form, ip string, out any) error {
	resp, err := c.do(ctx, method, path, form, ip)
	if err != nil {
		return err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return c.apiError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Me implements Client.
func (c *HTTPClient) Me(token, ip string) (Profile, error) {
	var p Profile
	if err := c.call(nil, http.MethodGet, "/me", tokenForm(token), ip, &p); err != nil {
		return Profile{}, err
	}
	return p, nil
}

// Like is LikeCtx without a trace context.
func (c *HTTPClient) Like(token, objectID, ip string) error {
	return c.LikeCtx(nil, token, objectID, ip)
}

// LikeCtx implements Client: when ctx carries a span, the request
// ships its trace ID in the propagation headers so the server-side span
// tree joins the caller's trace.
func (c *HTTPClient) LikeCtx(ctx context.Context, token, objectID, ip string) error {
	return c.call(ctx, http.MethodPost, "/"+objectID+"/likes", tokenForm(token), ip, nil)
}

// LikeBatch implements Client over POST /batch, chunked at the
// provider's batch-op cap. Each op rides as one batched POST /{object}/likes
// with its own token and, when set, its appsecret_proof; its source IP
// travels in the op's source_ip field so attribution survives
// coalescing. A transport-level failure marks every op of the failed
// chunk with the same error.
func (c *HTTPClient) LikeBatch(ctx context.Context, objectID string, ops []BatchLike) []error {
	errs := make([]error, len(ops))
	for start := 0; start < len(ops); start += c.maxBatch {
		end := start + c.maxBatch
		if end > len(ops) {
			end = len(ops)
		}
		c.likeBatchChunk(ctx, objectID, ops[start:end], errs[start:end])
	}
	return errs
}

// likeBatchChunk fires one ≤50-op chunk and fills errs (aligned with ops).
func (c *HTTPClient) likeBatchChunk(ctx context.Context, objectID string, ops []BatchLike, errs []error) {
	type batchOp struct {
		Method      string `json:"method"`
		RelativeURL string `json:"relative_url"`
		Body        string `json:"body"`
		SourceIP    string `json:"source_ip,omitempty"`
	}
	batch := make([]batchOp, len(ops))
	for i, op := range ops {
		body := tokenForm(op.Token)
		if op.AppSecretProof != "" {
			body += "&appsecret_proof=" + url.QueryEscape(op.AppSecretProof)
		}
		batch[i] = batchOp{
			Method:      http.MethodPost,
			RelativeURL: "/" + objectID + "/likes",
			Body:        body,
			SourceIP:    op.IP,
		}
	}
	fail := func(err error) {
		for i := range errs {
			errs[i] = err
		}
	}
	payload, err := json.Marshal(batch)
	if err != nil {
		fail(err)
		return
	}
	var results []struct {
		Code int    `json:"code"`
		Body string `json:"body"`
	}
	if err := c.call(ctx, http.MethodPost, "/batch", "batch="+url.QueryEscape(string(payload)), "", &results); err != nil {
		fail(err)
		return
	}
	if len(results) != len(ops) {
		fail(fmt.Errorf("platform: batch returned %d results for %d ops", len(results), len(ops)))
		return
	}
	for i, res := range results {
		if res.Code != http.StatusOK {
			errs[i] = c.envelopeError(res.Code, []byte(res.Body))
		}
	}
}

// create POSTs a message to path and returns the ID of the post or
// comment the platform created.
func (c *HTTPClient) create(ctx context.Context, path, token, message, ip string) (string, error) {
	var body struct {
		ID string `json:"id"`
	}
	form := tokenForm(token) + "&message=" + url.QueryEscape(message)
	if err := c.call(ctx, http.MethodPost, path, form, ip, &body); err != nil {
		return "", err
	}
	return body.ID, nil
}

// CommentCtx implements Client.
func (c *HTTPClient) CommentCtx(ctx context.Context, token, postID, message, ip string) (string, error) {
	return c.create(ctx, "/"+postID+"/comments", token, message, ip)
}

// Publish implements Client.
func (c *HTTPClient) Publish(token, message, ip string) (string, error) {
	return c.create(nil, "/me/feed", token, message, ip)
}

// page is one {"data":[…]} page of an edge; paginated edges add the
// cursor of the next page.
type page[T any] struct {
	Data   []T `json:"data"`
	Paging struct {
		Cursors struct {
			After string `json:"after"`
		} `json:"cursors"`
	} `json:"paging"`
}

// LikesOf implements Client, reading every page of the likes edge and
// following Facebook-style `after` cursors until the platform sends none
// — the way the paper's crawlers collected complete liker lists.
func (c *HTTPClient) LikesOf(token, objectID string) ([]LikeRecord, error) {
	var out []LikeRecord
	after := ""
	for {
		form := tokenForm(token) + "&limit=100"
		if after != "" {
			form += "&after=" + url.QueryEscape(after)
		}
		var p page[LikeRecord]
		if err := c.call(nil, http.MethodGet, "/"+objectID+"/likes", form, "", &p); err != nil {
			return nil, err
		}
		out = append(out, p.Data...)
		if p.Paging.Cursors.After == "" {
			return out, nil
		}
		after = p.Paging.Cursors.After
	}
}

// FriendsOf implements Client via the /me/friends edge.
func (c *HTTPClient) FriendsOf(token, ip string) ([]Profile, error) {
	var p page[Profile]
	if err := c.call(nil, http.MethodGet, "/me/friends", tokenForm(token), ip, &p); err != nil {
		return nil, err
	}
	return p.Data, nil
}
