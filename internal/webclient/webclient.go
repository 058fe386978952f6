// Package webclient is AIDE's HTTP access layer. It provides the two
// change-detection strategies of §2.1 — the HEAD request for a
// Last-Modified date (w3new's strategy) and the full-GET content checksum
// (URL-minder's strategy, required for CGI output that carries no
// Last-Modified) — plus the error classification that w3newer's §3.1
// error handling depends on (transient network trouble vs. a URL that is
// really gone).
//
// Transport abstracts the wire so that the same client runs against the
// real network (HTTPTransport) or against the in-process synthetic web
// (internal/websim), and also resolves file: URLs with a stat call, as
// w3newer's "file:" hotlist entries do.
package webclient

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"aide/internal/breaker"
	"aide/internal/httpdate"
	"aide/internal/obs"
	"aide/internal/simclock"
)

// Request is a minimal HTTP request. AIDE issues HEAD and GET for
// tracking and archiving, conditional GETs for cache revalidation, and
// POST for the §8.4 form services.
type Request struct {
	// Method is "HEAD", "GET", or "POST".
	Method string
	// URL is the absolute URL.
	URL string
	// IfModifiedSince, when nonzero, makes the request conditional: the
	// server may answer 304 Not Modified instead of a body.
	IfModifiedSince time.Time
	// Body is the request entity for POST (a URL-encoded form).
	Body string
	// GetBody, when non-nil, supplies the request entity as a fresh
	// reader per wire attempt instead of Body — the streaming path for
	// large uploads (shard exports) that must not be buffered into a
	// string. It is called once per attempt, so retries and redirect
	// hops replay the body from the start; implementations must return
	// an independent reader each call. Body is ignored when GetBody is
	// set.
	GetBody func() (io.Reader, error)
	// ContentType describes Body; defaults to
	// application/x-www-form-urlencoded for POSTs with a body.
	ContentType string
	// TraceParent is the W3C trace-context header value propagating the
	// caller's trace across the process boundary. Client.do fills it from
	// the request context's span; transports that cross a real socket
	// (HTTPTransport) send it as the traceparent header.
	TraceParent string
}

// Response carries the pieces of an HTTP response AIDE consumes.
type Response struct {
	// Status is the HTTP status code.
	Status int
	// LastModified is the parsed Last-Modified header; zero when the
	// server sent none (typical for CGI output).
	LastModified time.Time
	// Location is the redirect target for 3xx responses.
	Location string
	// Body is the entity body ("" for HEAD).
	Body string
	// RetryAfter is the server's requested pause before retrying,
	// parsed from the Retry-After header of a 503 (or other) response;
	// zero when the server sent none. RetryPolicy honours it, capped at
	// MaxDelay.
	RetryAfter time.Duration
}

// Transport performs a request. Implementations: HTTPTransport (real
// network) and websim.Web (simulation). Every implementation must
// honour ctx: return promptly with ctx.Err() (possibly wrapped) once
// the context is canceled or past its deadline.
type Transport interface {
	RoundTrip(ctx context.Context, req *Request) (*Response, error)
}

// ErrKind classifies failures for w3newer's error handling (§3.1).
type ErrKind int

// Error kinds, ordered roughly by severity.
const (
	// OK: no error.
	OK ErrKind = iota
	// Transient: timeouts, refused connections, 5xx — worth retrying on
	// the next run ("errors are likely to be transient").
	Transient
	// Moved: the URL has a forwarding pointer (3xx).
	Moved
	// Gone: the URL no longer exists (404/410) — the user should act.
	Gone
	// Forbidden: the server refuses access (401/403).
	Forbidden
	// Tripped: the host's circuit breaker is open; the call was
	// short-circuited without touching the wire. Like Transient it is
	// worth retrying later, but it carries no new evidence about the
	// host — the breaker's cooldown, not the caller, decides when the
	// wire is tried again.
	Tripped
)

// String names the kind for reports.
func (k ErrKind) String() string {
	switch k {
	case OK:
		return "ok"
	case Transient:
		return "transient error"
	case Moved:
		return "moved"
	case Gone:
		return "gone"
	case Forbidden:
		return "forbidden"
	case Tripped:
		return "breaker-open"
	}
	return "unknown"
}

// ErrBreakerOpen is the failure delivered for a host whose circuit
// breaker is open: the call never touched the wire. Test with
// errors.Is; Classify maps it to Tripped.
var ErrBreakerOpen = errors.New("webclient: host circuit breaker open")

// Classify maps a status code and transport error to an ErrKind.
func Classify(status int, err error) ErrKind {
	if err != nil {
		if errors.Is(err, ErrBreakerOpen) {
			return Tripped
		}
		return Transient
	}
	switch {
	case status >= 200 && status < 300:
		return OK
	case status >= 300 && status < 400:
		return Moved
	case status == 404 || status == 410:
		return Gone
	case status == 401 || status == 403:
		return Forbidden
	case status >= 500:
		return Transient
	default:
		return Transient
	}
}

// PageInfo is the result of a check or fetch.
type PageInfo struct {
	// URL is the final URL after redirects.
	URL string
	// Status is the final HTTP status (200 for file: successes).
	Status int
	// LastModified is the server's modification date, if provided.
	LastModified time.Time
	// HasLastModified records whether the server provided one.
	HasLastModified bool
	// Body is the content, when fetched.
	Body string
	// HasBody records whether Body was fetched.
	HasBody bool
	// Checksum is the hex MD5 of Body, when fetched.
	Checksum string
	// Redirected counts redirects followed.
	Redirected int
	// Attempts is the total number of wire round trips the operation
	// took, retries and redirect hops included (0 for file: URLs, which
	// never touch the wire). Callers can assert retry behaviour from
	// this instead of sniffing logs.
	Attempts int
	// BackoffTotal is the cumulative time spent sleeping between retry
	// attempts (simulated time under a simclock.Sim pacing clock).
	BackoffTotal time.Duration
}

// Client issues checks and fetches over a Transport. Every method takes
// a leading context.Context that bounds the whole operation, redirects
// and retries included: ctx flows down into the Transport, so a caller's
// deadline or cancellation stops the wire work promptly.
type Client struct {
	// Transport performs the requests; required.
	Transport Transport
	// MaxRedirects bounds redirect following (default 5).
	MaxRedirects int
	// Timeout, when positive, bounds each individual round-trip attempt
	// (a per-request timeout layered under the caller's ctx). A tripped
	// timeout is a Transient failure and is retried per Retry.
	Timeout time.Duration
	// Retry is the transient-failure retry policy; the zero value
	// disables retry.
	Retry RetryPolicy
	// Clock paces retry backoff and measures attempt latency; wall
	// clock when nil. Inject a simclock.Sim to make backoff spend
	// simulated time.
	Clock simclock.Clock
	// Metrics receives the client's counters and latency histograms
	// (attempts, retries by cause, timeouts, cancels); obs.Default when
	// nil. Inject a private registry to isolate a test's numbers.
	Metrics *obs.Registry
	// Breakers, when non-nil, applies per-host circuit breaking: calls
	// to a host whose breaker is open fail fast with ErrBreakerOpen
	// (ErrKind Tripped) instead of paying connect/timeout/retry costs,
	// and every attempt's outcome feeds the host's breaker.
	Breakers *breaker.Set
	// Stat resolves file: URLs; defaults to os.Stat. Replaceable for
	// tests.
	Stat func(path string) (os.FileInfo, error)
	// ReadFile fetches file: bodies; defaults to os.ReadFile.
	ReadFile func(path string) ([]byte, error)

	retrier retrier
}

// New returns a Client over the given transport.
func New(t Transport) *Client {
	return &Client{Transport: t, MaxRedirects: 5, Stat: os.Stat, ReadFile: os.ReadFile}
}

// Head performs a HEAD request (following redirects) and returns the
// modification info without the body.
func (c *Client) Head(ctx context.Context, url string) (PageInfo, error) {
	if isFileURL(url) {
		return c.statFile(url)
	}
	return c.do(ctx, Request{Method: "HEAD", URL: url})
}

// Get fetches the page body (following redirects) and computes its
// checksum.
func (c *Client) Get(ctx context.Context, url string) (PageInfo, error) {
	if isFileURL(url) {
		return c.readFile(url)
	}
	info, err := c.do(ctx, Request{Method: "GET", URL: url})
	if err != nil {
		return info, err
	}
	info.HasBody = true
	info.Checksum = ChecksumBody(info.Body)
	return info, nil
}

// GetConditional performs a conditional GET (If-Modified-Since). When
// the server answers 304, notModified is true and the PageInfo carries
// no body — the Netscape-style revalidation of §3.1's cache-consistency
// discussion.
func (c *Client) GetConditional(ctx context.Context, url string, since time.Time) (info PageInfo, notModified bool, err error) {
	if isFileURL(url) {
		info, err = c.statFile(url)
		if err != nil || info.Status != 200 {
			return info, false, err
		}
		if !info.LastModified.After(since) {
			info.Status = 304
			return info, true, nil
		}
		info, err = c.readFile(url)
		return info, false, err
	}
	info, err = c.do(ctx, Request{Method: "GET", URL: url, IfModifiedSince: since})
	if err != nil {
		return info, false, err
	}
	if info.Status == 304 {
		return info, true, nil
	}
	info.HasBody = true
	info.Checksum = ChecksumBody(info.Body)
	return info, false, nil
}

// Post submits a URL-encoded form and returns the service's output with
// its checksum — the §8.4 path for tracking CGI services that use POST.
func (c *Client) Post(ctx context.Context, url, form string) (PageInfo, error) {
	info, err := c.do(ctx, Request{
		Method:      "POST",
		URL:         url,
		Body:        form,
		ContentType: "application/x-www-form-urlencoded",
	})
	if err != nil {
		return info, err
	}
	info.HasBody = true
	info.Checksum = ChecksumBody(info.Body)
	return info, nil
}

// PostReader submits a request entity streamed from a reader. getBody
// is invoked once per wire attempt (retries and redirect hops replay
// the body), so it must return a fresh reader positioned at the start
// each time. The entity is never buffered into a string by this layer:
// multi-megabyte shard pushes flow straight from the producer to the
// socket.
func (c *Client) PostReader(ctx context.Context, url, contentType string, getBody func() (io.Reader, error)) (PageInfo, error) {
	info, err := c.do(ctx, Request{
		Method:      "POST",
		URL:         url,
		GetBody:     getBody,
		ContentType: contentType,
	})
	if err != nil {
		return info, err
	}
	info.HasBody = true
	info.Checksum = ChecksumBody(info.Body)
	return info, nil
}

// Check implements w3new's strategy: request the Last-Modified date if
// available; otherwise retrieve and checksum the whole page (§2.1).
func (c *Client) Check(ctx context.Context, url string) (PageInfo, error) {
	info, err := c.Head(ctx, url)
	if err != nil || Classify(info.Status, nil) != OK {
		return info, err
	}
	if info.HasLastModified {
		return info, nil
	}
	return c.Get(ctx, url)
}

// ChecksumBody returns the hex MD5 of a page body — the URL-minder
// change-detection strategy.
func ChecksumBody(body string) string {
	sum := md5.Sum([]byte(body))
	return hex.EncodeToString(sum[:])
}

// do performs one logical request: redirect following around the
// retrying round trip, traced as one "webclient.fetch" span.
func (c *Client) do(ctx context.Context, req Request) (PageInfo, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	info := PageInfo{URL: req.URL}
	ctx, span := obs.StartSpan(ctx, "webclient.fetch")
	span.SetAttr("method", req.Method)
	span.SetAttr("url", req.URL)
	defer func() {
		span.SetAttr("status", strconv.Itoa(info.Status))
		span.SetAttr("attempts", strconv.Itoa(info.Attempts))
		span.End()
	}()
	max := c.MaxRedirects
	if max <= 0 {
		max = 5
	}
	// The fetch span is the parent the far side links under; rendered
	// once here, reused for every redirect hop and retry attempt.
	traceParent := obs.Inject(ctx)
	for hop := 0; ; hop++ {
		hopReq := req
		hopReq.URL = info.URL
		hopReq.TraceParent = traceParent
		resp, tries, slept, err := c.roundTrip(ctx, &hopReq)
		info.Attempts += tries
		info.BackoffTotal += slept
		if err != nil {
			return info, err
		}
		info.Status = resp.Status
		info.LastModified = resp.LastModified
		info.HasLastModified = !resp.LastModified.IsZero()
		info.Body = resp.Body
		if resp.Status >= 300 && resp.Status < 400 && resp.Location != "" {
			if hop >= max {
				return info, fmt.Errorf("webclient: too many redirects at %s", info.URL)
			}
			info.URL = resolveRef(info.URL, resp.Location)
			info.Redirected++
			continue
		}
		return info, nil
	}
}

// statFile resolves a file: URL via stat, the cheap local check of §3.
func (c *Client) statFile(url string) (PageInfo, error) {
	path := filePath(url)
	fi, err := c.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return PageInfo{URL: url, Status: 404}, nil
		}
		return PageInfo{URL: url}, err
	}
	return PageInfo{
		URL: url, Status: 200,
		LastModified:    fi.ModTime().UTC(),
		HasLastModified: true,
	}, nil
}

// readFile fetches a file: URL body.
func (c *Client) readFile(url string) (PageInfo, error) {
	info, err := c.statFile(url)
	if err != nil || info.Status != 200 {
		return info, err
	}
	data, err := c.ReadFile(filePath(url))
	if err != nil {
		return info, err
	}
	info.Body = string(data)
	info.HasBody = true
	info.Checksum = ChecksumBody(info.Body)
	return info, nil
}

func isFileURL(url string) bool {
	return strings.HasPrefix(url, "file:")
}

// filePath strips the file: prefix, tolerating both "file:/p" and
// "file:///p".
func filePath(url string) string {
	p := strings.TrimPrefix(url, "file:")
	p = strings.TrimPrefix(p, "//")
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return p
}

// resolveRef resolves a possibly relative redirect Location against base.
func resolveRef(base, ref string) string {
	if strings.Contains(ref, "://") {
		return ref
	}
	scheme, rest, ok := strings.Cut(base, "://")
	if !ok {
		return ref
	}
	host, path, _ := strings.Cut(rest, "/")
	if strings.HasPrefix(ref, "/") {
		return scheme + "://" + host + ref
	}
	// Relative to the base directory.
	dir := ""
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		dir = path[:i]
	}
	return scheme + "://" + host + "/" + joinPath(dir, ref)
}

func joinPath(dir, ref string) string {
	if dir == "" {
		return ref
	}
	return dir + "/" + ref
}

// --- real-network transport ---------------------------------------------------

// HTTPTransport performs requests over the real network with net/http.
type HTTPTransport struct {
	// Client is the underlying HTTP client; a default with a 30-second
	// timeout is used when nil.
	Client *http.Client
	// UserAgent identifies the robot (robots.txt compliance is handled
	// by internal/robots above this layer).
	UserAgent string
}

// RoundTrip implements Transport. The request is bound to ctx, so the
// caller's deadline or cancellation aborts the dial, the headers, and
// the body read. Redirects are reported, not followed: the caller's
// redirect logic also runs against simulated transports, so it lives in
// Client.
func (t *HTTPTransport) RoundTrip(ctx context.Context, req *Request) (*Response, error) {
	hc := t.Client
	if hc == nil {
		hc = &http.Client{
			Timeout: 30 * time.Second,
			CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			},
		}
	}
	var bodyReader io.Reader
	if req.GetBody != nil {
		var gerr error
		bodyReader, gerr = req.GetBody()
		if gerr != nil {
			return nil, gerr
		}
	} else if req.Body != "" {
		bodyReader = strings.NewReader(req.Body)
	}
	hreq, err := http.NewRequestWithContext(ctx, req.Method, req.URL, bodyReader)
	if err != nil {
		return nil, err
	}
	ua := t.UserAgent
	if ua == "" {
		ua = "w3newer/2.0 (AIDE)"
	}
	hreq.Header.Set("User-Agent", ua)
	if req.TraceParent != "" {
		hreq.Header.Set(obs.TraceParentHeader, req.TraceParent)
	}
	if !req.IfModifiedSince.IsZero() {
		hreq.Header.Set("If-Modified-Since", httpdate.Format(req.IfModifiedSince))
	}
	if req.Body != "" || req.GetBody != nil {
		ct := req.ContentType
		if ct == "" {
			ct = "application/x-www-form-urlencoded"
		}
		hreq.Header.Set("Content-Type", ct)
	}
	hresp, err := hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	resp := &Response{Status: hresp.StatusCode, Location: hresp.Header.Get("Location")}
	if lm := hresp.Header.Get("Last-Modified"); lm != "" {
		// The shared robust parser accepts the obsolete RFC 850 and
		// asctime forms old servers still emit (http.ParseTime does too,
		// but not the malformed variants in the wild).
		if ts, perr := httpdate.Parse(lm); perr == nil {
			resp.LastModified = ts
		}
	}
	if ra := hresp.Header.Get("Retry-After"); ra != "" {
		resp.RetryAfter = parseRetryAfter(ra)
	}
	if req.Method != "HEAD" {
		body, rerr := io.ReadAll(hresp.Body)
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = string(body)
	}
	return resp, nil
}

// parseRetryAfter parses a Retry-After header value: either delta
// seconds or an HTTP-date (relative to the wall clock, the only clock a
// real server's date can be compared against). Unparseable values yield
// zero.
func parseRetryAfter(v string) time.Duration {
	if secs, err := strconv.Atoi(strings.TrimSpace(v)); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := httpdate.Parse(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// IsTimeout reports whether err is a network timeout — including a
// tripped per-request context deadline — for callers that want to
// distinguish overload from other transient failures (§3.1's
// proxy-server overload aggravation concern).
func IsTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
