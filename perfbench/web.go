package main

import (
	"net"
	"net/http"
	"time"

	"aide/internal/simclock"
	"aide/internal/websim"
)

// simWeb serves a websim web on loopback with one listener per simulated
// host. Each site is named by its listener address, so page URLs are
// plain http://127.0.0.1:<port>/path URLs any client can fetch.
type simWeb struct {
	web   *websim.Web
	hosts []string
	srvs  []*http.Server
}

func newSimWeb(nhosts int) (*simWeb, error) {
	s := &simWeb{web: websim.New(simclock.New(time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)))}
	inner := s.web.Handler()
	for i := 0; i < nhosts; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		host := l.Addr().String()
		s.web.Site(host)
		// websim's handler carries the logical host as the first path
		// segment; this listener is that host.
		srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.URL.Path = "/" + host + r.URL.Path
			inner.ServeHTTP(w, r)
		})}
		s.hosts = append(s.hosts, host)
		s.srvs = append(s.srvs, srv)
		go srv.Serve(l)
	}
	return s, nil
}

func (s *simWeb) site(i int) *websim.Site { return s.web.Site(s.hosts[i]) }

// close stops every listener and open connection.
func (s *simWeb) close() {
	if s == nil {
		return
	}
	for _, srv := range s.srvs {
		srv.Close()
	}
}
