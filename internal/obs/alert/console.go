package alert

import (
	"net/http"
	"strings"
)

// ServeConsole serves the GET /v1/dashboard ops console: one
// self-contained HTML page (inline CSS and JS, zero external assets) that
// polls the tier's own /v1/stats, /v1/alerts, and /v1/timeseries routes
// and renders the active-alert panel, ring membership or queue state, and
// metric sparklines. The same page serves both tiers — it shows whichever
// panels the stats document supports.
func ServeConsole(w http.ResponseWriter, node string) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	page := strings.Replace(consoleHTML, "__NODE__", htmlEscape(node), 1)
	_, _ = w.Write([]byte(page))
}

// htmlEscape covers the node name interpolated into the page title.
func htmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

const consoleHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>ddrace ops &middot; __NODE__</title>
<style>
  :root {
    --bg: #0d1117; --panel: #161b22; --line: #30363d; --fg: #e6edf3;
    --dim: #8b949e; --ok: #3fb950; --warn: #d29922; --crit: #f85149;
    --accent: #58a6ff;
  }
  * { box-sizing: border-box; }
  body { margin: 0; background: var(--bg); color: var(--fg);
         font: 13px/1.5 ui-monospace, SFMono-Regular, Menlo, Consolas, monospace; }
  header { display: flex; align-items: baseline; gap: 12px; padding: 12px 16px;
           border-bottom: 1px solid var(--line); }
  header h1 { font-size: 15px; margin: 0; font-weight: 600; }
  header .node { color: var(--accent); }
  header .meta { color: var(--dim); margin-left: auto; }
  .badge { display: inline-block; padding: 0 8px; border-radius: 10px;
           font-size: 11px; border: 1px solid var(--line); }
  .badge.ok { color: var(--ok); border-color: var(--ok); }
  .badge.warn { color: var(--warn); border-color: var(--warn); }
  .badge.crit { color: var(--crit); border-color: var(--crit); }
  main { display: grid; grid-template-columns: repeat(auto-fit, minmax(340px, 1fr));
         gap: 12px; padding: 12px 16px; }
  section { background: var(--panel); border: 1px solid var(--line);
            border-radius: 6px; padding: 10px 12px; }
  section h2 { font-size: 12px; margin: 0 0 8px; color: var(--dim);
               text-transform: uppercase; letter-spacing: .08em; }
  section.wide { grid-column: 1 / -1; }
  table { width: 100%; border-collapse: collapse; }
  th, td { text-align: left; padding: 3px 8px 3px 0; vertical-align: top; }
  th { color: var(--dim); font-weight: 400; border-bottom: 1px solid var(--line); }
  td.num, th.num { text-align: right; }
  .empty { color: var(--dim); font-style: italic; }
  .bar { height: 8px; background: var(--bg); border: 1px solid var(--line);
         border-radius: 4px; overflow: hidden; margin-top: 2px; }
  .bar i { display: block; height: 100%; background: var(--accent); }
  .bar i.warn { background: var(--warn); }
  .bar i.crit { background: var(--crit); }
  .sparks { display: grid; grid-template-columns: repeat(auto-fill, minmax(250px, 1fr));
            gap: 8px; }
  .spark { border: 1px solid var(--line); border-radius: 4px; padding: 6px 8px;
           background: var(--bg); }
  .spark .name { color: var(--dim); font-size: 11px; overflow: hidden;
                 text-overflow: ellipsis; white-space: nowrap; }
  .spark .last { font-size: 14px; }
  .spark svg { width: 100%; height: 34px; display: block; }
  .spark path { fill: none; stroke: var(--accent); stroke-width: 1.5; }
  .hist { color: var(--dim); }
  footer { color: var(--dim); padding: 4px 16px 14px; }
  #err { color: var(--crit); padding: 0 16px; }
</style>
</head>
<body>
<header>
  <h1>ddrace ops &middot; <span class="node" id="node">__NODE__</span></h1>
  <span class="badge" id="health">&hellip;</span>
  <span class="meta" id="meta"></span>
</header>
<div id="err"></div>
<main>
  <section class="wide"><h2>Alerts</h2><div id="alerts" class="empty">loading&hellip;</div></section>
  <section id="ringSec" hidden><h2>Ring membership</h2><div id="ring"></div></section>
  <section id="queueSec" hidden><h2>Job queue</h2><div id="queue"></div></section>
  <section id="sloSec" hidden><h2>SLO budget</h2><div id="slo"></div></section>
  <section id="replSec" hidden><h2>Replication</h2><div id="repl"></div></section>
  <section id="tenantSec" hidden><h2>Tenants</h2><div id="tenants"></div></section>
  <section class="wide"><h2>Timeseries (last 15m)</h2><div id="sparks" class="sparks empty">loading&hellip;</div></section>
</main>
<footer>self-contained console &mdash; polls /v1/stats, /v1/alerts, /v1/timeseries on this node; tail transitions with <code>ddrace -alerts</code></footer>
<script>
"use strict";
const $ = id => document.getElementById(id);
const esc = s => String(s).replace(/[&<>"]/g, c => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;"}[c]));
const fmt = v => Math.abs(v) >= 100 ? v.toFixed(0) : +v.toPrecision(3);
const ago = ms => { const s = Math.max(0, (Date.now() - ms) / 1000);
  return s < 90 ? s.toFixed(0) + "s" : s < 5400 ? (s/60).toFixed(0) + "m" : (s/3600).toFixed(1) + "h"; };

async function getJSON(url) {
  const r = await fetch(url, {cache: "no-store"});
  if (!r.ok) throw new Error(url + ": HTTP " + r.status);
  return r.json();
}

function sevClass(sev) { return sev === "critical" ? "crit" : sev === "warning" ? "warn" : "ok"; }

function renderAlerts(doc) {
  const active = doc.active || [], hist = doc.history || [];
  let h = "";
  if (!active.length) {
    h += '<div class="empty">no active alerts &mdash; ' + (doc.rules || []).length + " rules watching</div>";
  } else {
    h += "<table><tr><th>severity</th><th>rule</th><th>state</th><th class=num>value</th><th class=num>threshold</th><th>since</th><th>summary</th></tr>";
    for (const a of active) {
      h += "<tr><td><span class='badge " + sevClass(a.severity) + "'>" + esc(a.severity) + "</span></td>" +
        "<td>" + esc(a.rule) + (a.node ? " <span class=hist>@" + esc(a.node) + "</span>" : "") + "</td>" +
        "<td>" + esc(a.state) + "</td><td class=num>" + fmt(a.value) + "</td><td class=num>" + fmt(a.threshold) + "</td>" +
        "<td>" + ago(a.since_ms) + "</td><td class=hist>" + esc(a.summary || "") + "</td></tr>";
    }
    h += "</table>";
  }
  if (hist.length) {
    h += '<div class="hist" style="margin-top:8px">recently resolved: ' +
      hist.slice(0, 8).map(a => esc(a.rule) + " (" + ago(a.resolved_ms) + " ago)").join(", ") + "</div>";
  }
  $("alerts").className = "";
  $("alerts").innerHTML = h;
}

function bar(frac, warnAt, critAt) {
  const pct = Math.max(0, Math.min(100, frac * 100));
  const cls = frac >= critAt ? "crit" : frac >= warnAt ? "warn" : "";
  return '<div class="bar"><i class="' + cls + '" style="width:' + pct + '%"></i></div>';
}

function renderStats(s) {
  const healthy = s.health ? s.health === "ok" : (s.ring ? (s.ring.active || []).length === s.ring.members : true);
  $("health").textContent = s.health || (healthy ? "ok" : "degraded");
  $("health").className = "badge " + (healthy ? "ok" : "crit");
  $("meta").textContent = "up " + ago(Date.now() - (s.uptime_seconds || 0) * 1000);
  if (s.node) $("node").textContent = s.node;
  if (s.ring) {
    $("ringSec").hidden = false;
    const act = s.ring.active || [];
    let h = act.length + "/" + s.ring.members + " members routable &middot; " + s.ring.vnodes + " vnodes each";
    h += bar(s.ring.members ? act.length / s.ring.members : 0, 2, 2).replace("bar\"", "bar\" title=\"ring\"");
    if (s.backends) {
      h += "<table><tr><th>backend</th><th>health</th><th class=num>forwarded</th></tr>";
      for (const b of s.backends) {
        h += "<tr><td>" + esc(b.name) + "</td><td><span class='badge " +
          (b.health === "ok" ? "ok" : b.health === "degraded" ? "warn" : "crit") + "'>" + esc(b.health) + "</span></td>" +
          "<td class=num>" + (b.forwarded || 0) + "</td></tr>";
      }
      h += "</table>";
      if (s.stats_errors) h += '<div class="hist">partial fleet view: ' + s.stats_errors + " backend(s) unreachable</div>";
    }
    $("ring").innerHTML = h;
  }
  if (s.queue) {
    $("queueSec").hidden = false;
    const q = s.queue, j = s.jobs || {};
    $("queue").innerHTML =
      "depth " + q.depth + "/" + q.capacity + " (high water " + q.high_water + ")" +
      bar(q.capacity ? q.depth / q.capacity : 0, q.capacity ? q.high_water / q.capacity : 1, 1) +
      "<div style='margin-top:6px'>inflight " + (j.inflight || 0) + " &middot; util " + (j.utilization_pct || 0) + "%" +
      " &middot; done " + (j.completed || 0) + " &middot; failed " + (j.failed || 0) + " &middot; rejected " + (j.rejected || 0) + "</div>";
  }
  if (s.slo) {
    $("sloSec").hidden = false;
    $("slo").innerHTML =
      "compliance " + (s.slo.compliance * 100).toFixed(3) + "% (target " + (s.slo.target * 100).toFixed(2) + "%, " +
      fmt(s.slo.threshold_ms) + "ms)" + bar(s.slo.budget_used, 0.5, 1) +
      "<div style='margin-top:6px'>budget used " + (s.slo.budget_used * 100).toFixed(1) + "% &middot; " +
      s.slo.breaches + "/" + s.slo.requests + " breaches</div>";
  }
  if (s.replication) {
    $("replSec").hidden = false;
    const r = s.replication;
    $("repl").innerHTML =
      "factor " + r.factor + " &middot; " + r.tracked + " keys tracked" +
      bar(r.tracked ? 1 - r.under_replicated / r.tracked : 1, 2, 2) +
      "<div style='margin-top:6px'>under-replicated " + r.under_replicated +
      " &middot; queue " + r.queue +
      (r.degraded ? " &middot; <span class='badge crit'>degraded</span>" : "") + "</div>";
  }
  if (s.tenants && s.tenants.length) {
    $("tenantSec").hidden = false;
    let h = "<table><tr><th>tenant</th><th class=num>weight</th><th class=num>tokens</th>" +
      "<th class=num>active</th><th class=num>jobs</th><th class=num>cache hits</th><th class=num>throttled</th></tr>";
    for (const t of s.tenants) {
      h += "<tr><td>" + esc(t.name) + "</td><td class=num>" + fmt(t.weight) + "</td>" +
        "<td class=num>" + fmt(t.tokens) + "/" + fmt(t.burst) + "</td>" +
        "<td class=num>" + (t.active || 0) + "</td><td class=num>" + (t.jobs || 0) + "</td>" +
        "<td class=num>" + (t.cache_hits || 0) + "</td>" +
        "<td class=num>" + (t.throttled ? "<span class='badge warn'>" + t.throttled + "</span>" : 0) + "</td></tr>";
    }
    $("tenants").innerHTML = h + "</table>";
  }
}

// Preferred sparkline metrics, by substring, in display order; anything
// else fills remaining slots alphabetically.
const preferred = ["queue_depth", "worker_utilization", "slo_breaches", "slo_requests",
  "jobs_inflight", "cache_hits", "ring_members", "forwards_total", "ingest_chunks",
  "replica_under_replicated", "replica_read_repair", "tenant_throttled",
  'http_latency_ms{route="post_jobs"}:p99', "ddalert_active"];
const MAX_SPARKS = 18;

function sparkline(series) {
  const ss = series.samples || [];
  if (!ss.length) return "";
  const vs = ss.map(p => p.v);
  let lo = Math.min(...vs), hi = Math.max(...vs);
  if (hi === lo) { hi += 1; lo -= lo ? Math.abs(lo) * 0.05 : 1; }
  const W = 240, H = 30;
  const t0 = ss[0].t, t1 = ss[ss.length - 1].t || t0 + 1;
  const pts = ss.map(p => {
    const x = t1 === t0 ? W : ((p.t - t0) / (t1 - t0)) * W;
    const y = H - ((p.v - lo) / (hi - lo)) * (H - 2) - 1;
    return x.toFixed(1) + "," + y.toFixed(1);
  });
  const name = series.node ? series.node + " &middot; " + esc(series.metric) : esc(series.metric);
  return '<div class="spark"><div class="name" title="' + esc(series.metric) + '">' + name + "</div>" +
    '<span class="last">' + fmt(vs[vs.length - 1]) + "</span>" +
    '<svg viewBox="0 0 ' + W + " " + H + '" preserveAspectRatio="none"><path d="M' + pts.join(" L") + '"/></svg></div>';
}

function renderSparks(doc) {
  let series = (doc.series || []).filter(s => (s.samples || []).length > 1);
  series.sort((a, b) => {
    const ra = preferred.findIndex(p => a.metric.includes(p));
    const rb = preferred.findIndex(p => b.metric.includes(p));
    if ((ra < 0) !== (rb < 0)) return ra < 0 ? 1 : -1;
    if (ra !== rb) return ra - rb;
    return (a.node + a.metric).localeCompare(b.node + b.metric);
  });
  series = series.slice(0, MAX_SPARKS);
  $("sparks").className = "sparks";
  $("sparks").innerHTML = series.length ? series.map(sparkline).join("") :
    '<div class="empty">no samples yet &mdash; the tsdb fills on its next ticks</div>';
}

async function tickFast() {
  try {
    const [stats, alerts] = await Promise.all([getJSON("/v1/stats"), getJSON("/v1/alerts")]);
    renderStats(stats); renderAlerts(alerts);
    $("err").textContent = "";
  } catch (e) { $("err").textContent = String(e); }
}
async function tickSlow() {
  try { renderSparks(await getJSON("/v1/timeseries?since=15m")); }
  catch (e) { $("err").textContent = String(e); }
}
tickFast(); tickSlow();
setInterval(tickFast, 2000);
setInterval(tickSlow, 5000);
</script>
</body>
</html>
`
