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
// to its platform: one per collusion delivery worker
// (collusion.Config.DeliveryWorkers, 4 by default). With net/http's
// default of 2, every burst of 4 concurrent /batch calls dials new
// connections.
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
		maxBatch: prov.Limits().MaxBatchOps,
		http: &http.Client{
			Transport: transport,
			Timeout:   30 * time.Second,
			CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			},
		},
	}
}

// RemoteAPIError is a Graph API error received over HTTP. Code and Type
// are in the issuing provider's vocabulary; Kind is the provider-neutral
// classification the receiving client derived from Code.
type RemoteAPIError struct {
	Code    int
	Type    string
	Message string
	Kind    provider.ErrKind
}

// Error implements error.
func (e *RemoteAPIError) Error() string {
	return fmt.Sprintf("platform: (#%d) %s: %s", e.Code, e.Type, e.Message)
}

// apiError decodes a Graph API error response into an error value.
func (c *HTTPClient) apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, drainLimit))
	return c.envelopeError(resp.StatusCode, body)
}

// envelopeError decodes a Graph API error envelope, standalone or embedded
// in a batch result, into an error value, classifying the
// provider-specific code into a neutral kind.
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
	return &RemoteAPIError{
		Code:    env.Error.Code,
		Type:    env.Error.Type,
		Message: env.Error.Message,
		Kind:    c.prov.KindOfCode(env.Error.Code),
	}
}

// closeBody reads what is left of resp's body, up to drainLimit, and
// closes it, so the connection goes back to the idle pool instead of
// being torn down. Every call path releases its response through it.
func closeBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit))
	_ = resp.Body.Close() // a read-only body; nothing to lose on Close
}

// tokenForm is the URL-encoded form of a call that carries only a token.
func tokenForm(token string) string {
	return "access_token=" + url.QueryEscape(token)
}

// AuthorizeImplicit implements Client by scraping the token from the
// dialog redirect fragment — the "copy the token from the address bar"
// workflow of Figure 3.
func (c *HTTPClient) AuthorizeImplicit(appID, redirectURI, accountID string, scopes []string) (string, error) {
	q := url.Values{}
	q.Set("client_id", appID)
	q.Set("redirect_uri", redirectURI)
	q.Set("response_type", "token")
	q.Set("account_id", accountID)
	q.Set("scope", strings.Join(scopes, ","))
	resp, err := c.http.Get(c.base + "/dialog/oauth?" + q.Encode())
	if err != nil {
		return "", err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusFound {
		return "", c.apiError(resp)
	}
	loc, err := url.Parse(resp.Header.Get("Location"))
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
	q := url.Values{}
	q.Set("client_id", appID)
	q.Set("redirect_uri", redirectURI)
	q.Set("response_type", "code")
	q.Set("account_id", accountID)
	q.Set("scope", strings.Join(scopes, ","))
	resp, err := c.http.Get(c.base + "/dialog/oauth?" + q.Encode())
	if err != nil {
		return "", err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusFound {
		return "", c.apiError(resp)
	}
	loc, err := url.Parse(resp.Header.Get("Location"))
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
	resp, err := c.do(nil, http.MethodPost, "/oauth/access_token", form.Encode(), "")
	if err != nil {
		return "", err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return "", c.apiError(resp)
	}
	var body struct {
		AccessToken string `json:"access_token"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
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
	return c.http.Do(req)
}

// Me implements Client.
func (c *HTTPClient) Me(token, ip string) (Profile, error) {
	resp, err := c.do(nil, http.MethodGet, "/me", tokenForm(token), ip)
	if err != nil {
		return Profile{}, err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return Profile{}, c.apiError(resp)
	}
	var body struct {
		ID      string `json:"id"`
		Name    string `json:"name"`
		Country string `json:"country"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return Profile{}, err
	}
	return Profile{ID: body.ID, Name: body.Name, Country: body.Country}, nil
}

// Like is LikeCtx without a trace context.
func (c *HTTPClient) Like(token, objectID, ip string) error {
	return c.LikeCtx(nil, token, objectID, ip)
}

// LikeCtx implements Client: when ctx carries a span, the request
// ships its trace ID in the propagation headers so the server-side span
// tree joins the caller's trace.
func (c *HTTPClient) LikeCtx(ctx context.Context, token, objectID, ip string) error {
	resp, err := c.do(ctx, http.MethodPost, "/"+objectID+"/likes", tokenForm(token), ip)
	if err != nil {
		return err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return c.apiError(resp)
	}
	return nil
}

// LikeBatch implements Client over POST /batch, chunked at the
// provider's batch-op cap. Each op rides as one batched POST /{object}/likes
// with its own token, and its source IP travels in the op's source_ip
// field so attribution survives coalescing. A transport-level failure
// marks every op of the failed chunk with the same error.
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
		batch[i] = batchOp{
			Method:      http.MethodPost,
			RelativeURL: "/" + objectID + "/likes",
			Body:        "access_token=" + url.QueryEscape(op.Token),
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
	resp, err := c.do(ctx, http.MethodPost, "/batch", "batch="+url.QueryEscape(string(payload)), "")
	if err != nil {
		fail(err)
		return
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		fail(c.apiError(resp))
		return
	}
	var results []struct {
		Code int    `json:"code"`
		Body string `json:"body"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
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

// CommentCtx implements Client.
func (c *HTTPClient) CommentCtx(ctx context.Context, token, postID, message, ip string) (string, error) {
	form := tokenForm(token) + "&message=" + url.QueryEscape(message)
	resp, err := c.do(ctx, http.MethodPost, "/"+postID+"/comments", form, ip)
	if err != nil {
		return "", err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return "", c.apiError(resp)
	}
	var body struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", err
	}
	return body.ID, nil
}

// Publish implements Client.
func (c *HTTPClient) Publish(token, message, ip string) (string, error) {
	form := tokenForm(token) + "&message=" + url.QueryEscape(message)
	resp, err := c.do(nil, http.MethodPost, "/me/feed", form, ip)
	if err != nil {
		return "", err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return "", c.apiError(resp)
	}
	var body struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", err
	}
	return body.ID, nil
}

// LikesOf implements Client. The likes edge is paginated server-side
// (Facebook-style `after` cursors); the client walks every page, the way
// the paper's crawlers collected complete liker lists.
func (c *HTTPClient) LikesOf(token, objectID string) ([]LikeRecord, error) {
	var out []LikeRecord
	after := ""
	for {
		form := tokenForm(token) + "&limit=100"
		if after != "" {
			form += "&after=" + url.QueryEscape(after)
		}
		resp, err := c.do(nil, http.MethodGet, "/"+objectID+"/likes", form, "")
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			err := c.apiError(resp)
			closeBody(resp)
			return nil, err
		}
		var body struct {
			Data []struct {
				ID   string `json:"id"`
				Time string `json:"time"`
			} `json:"data"`
			Paging struct {
				Cursors struct {
					After string `json:"after"`
				} `json:"cursors"`
			} `json:"paging"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		closeBody(resp)
		if err != nil {
			return nil, err
		}
		for _, d := range body.Data {
			at, _ := time.Parse("2006-01-02T15:04:05Z", d.Time)
			out = append(out, LikeRecord{AccountID: d.ID, At: at})
		}
		if body.Paging.Cursors.After == "" {
			return out, nil
		}
		after = body.Paging.Cursors.After
	}
}

// FeedOf implements Client via GET /me/feed.
func (c *HTTPClient) FeedOf(token string) ([]PostRecord, error) {
	resp, err := c.do(nil, http.MethodGet, "/me/feed", tokenForm(token), "")
	if err != nil {
		return nil, err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, c.apiError(resp)
	}
	var body struct {
		Data []struct {
			ID      string `json:"id"`
			Message string `json:"message"`
			Time    string `json:"time"`
		} `json:"data"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	out := make([]PostRecord, len(body.Data))
	for i, d := range body.Data {
		at, _ := time.Parse("2006-01-02T15:04:05Z", d.Time)
		out[i] = PostRecord{ID: d.ID, Message: d.Message, At: at}
	}
	return out, nil
}

// FriendsOf implements Client via the /me/friends edge.
func (c *HTTPClient) FriendsOf(token, ip string) ([]Profile, error) {
	resp, err := c.do(nil, http.MethodGet, "/me/friends", tokenForm(token), ip)
	if err != nil {
		return nil, err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, c.apiError(resp)
	}
	var body struct {
		Data []struct {
			ID      string `json:"id"`
			Name    string `json:"name"`
			Country string `json:"country"`
		} `json:"data"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	out := make([]Profile, len(body.Data))
	for i, d := range body.Data {
		out[i] = Profile{ID: d.ID, Name: d.Name, Country: d.Country}
	}
	return out, nil
}

// CommentsOf implements Client, walking the paginated comments edge.
func (c *HTTPClient) CommentsOf(token, postID string) ([]CommentRecord, error) {
	var out []CommentRecord
	after := ""
	for {
		form := tokenForm(token) + "&limit=100"
		if after != "" {
			form += "&after=" + url.QueryEscape(after)
		}
		resp, err := c.do(nil, http.MethodGet, "/"+postID+"/comments", form, "")
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			err := c.apiError(resp)
			closeBody(resp)
			return nil, err
		}
		var body struct {
			Data []struct {
				ID      string `json:"id"`
				From    string `json:"from"`
				Message string `json:"message"`
				Time    string `json:"time"`
			} `json:"data"`
			Paging struct {
				Cursors struct {
					After string `json:"after"`
				} `json:"cursors"`
			} `json:"paging"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		closeBody(resp)
		if err != nil {
			return nil, err
		}
		for _, d := range body.Data {
			at, _ := time.Parse("2006-01-02T15:04:05Z", d.Time)
			out = append(out, CommentRecord{ID: d.ID, AccountID: d.From, Message: d.Message, At: at})
		}
		if body.Paging.Cursors.After == "" {
			return out, nil
		}
		after = body.Paging.Cursors.After
	}
}
