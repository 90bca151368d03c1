// Package alerter implements the first stage of the notification chain
// (Section 6): the URL Alerter and the XML Alerter. For every fetched
// document the alerters detect the atomic events of interest and assemble
// a single alert — the ordered set of atomic event codes — which is sent
// to the Monitoring Query Processor. All the atomic events of a document
// are collected before the alert is sent, so the processor sees each
// document exactly once (Section 6.1).
//
// The paper designs an HTML alerter but implements only the first two
// (Section 3). Here the XML Alerter's word index serves HTML pages too: an
// HTML page is not warehoused or parsed, so of the content conditions only
// `self contains word` applies to it, matched against every word of the
// raw body, markup included. Metadata and self-change events are the URL
// Alerter's and apply to both page types.
package alerter

import (
	"sync"

	"xymon/internal/core"
	"xymon/internal/warehouse"
	"xymon/internal/xmldom"
	"xymon/internal/xydiff"
)

// Doc is the unit of work flowing from the crawler through the alerters: a
// fetched page with its metadata, its change status against the warehouse
// and, for XML, the parsed document and the delta to the previous version.
type Doc struct {
	Meta   warehouse.Metadata
	Status warehouse.Status
	// Doc is the current version for XML pages (nil for HTML).
	Doc *xmldom.Document
	// Delta is the change from the previous version (nil unless updated).
	Delta *xydiff.Delta
	// Content is the raw page body as fetched: the XML alerter scans an
	// HTML page's for words, the warehouse log stores an XML page's. It is
	// valid only while the Doc is processed (System.PushXML reuses its
	// buffer afterwards): a stage that keeps any of it copies it.
	Content []byte

	clOnce sync.Once
	cl     *xydiff.Classification
}

// Classification projects the delta onto the current version, computed at
// most once per document no matter how many consumers ask: the XML alerter
// raises its change events from it and the manager filters every
// registered query's `new X` / `updated X` payloads against the same
// instance, where each used to run its own xydiff.Classify. Returns nil
// when there is no parsed document or no delta (nothing to classify).
// Docs are shared by pointer along the pipeline, so the sync.Once also
// makes the lazy computation safe across stages.
func (d *Doc) Classification() *xydiff.Classification {
	if d.Doc == nil || d.Delta == nil {
		return nil
	}
	d.clOnce.Do(func() { d.cl = xydiff.Classify(d.Doc, d.Delta) })
	return d.cl
}

// Alert is what the alerters hand to the Monitoring Query Processor: the
// canonical set of atomic events detected on one document plus the data
// needed to build notifications.
type Alert struct {
	Doc    *Doc
	Events core.EventSet
	// Strong is false when only weak events (document-level change
	// patterns) were detected; such alerts are suppressed (Section 5.1).
	Strong bool
}
