#include "obs/export.hpp"

#include <cinttypes>
#include <cstdio>

#include "util/json.hpp"
#include "util/strings.hpp"

namespace mahimahi::obs {
namespace {

using util::append_json_escaped;
using util::csv_field;
using util::fixed;

// ---- Chrome trace ---------------------------------------------------------

// Thread lane for (session, layer): shared infrastructure (session -1)
// gets lanes 0..4, session s gets lanes (s+1)*8 + layer.
std::int64_t lane(std::int32_t session, Layer layer) {
  const auto layer_index = static_cast<std::int64_t>(layer);
  return (static_cast<std::int64_t>(session) + 1) * 8 + layer_index;
}

std::string lane_name(std::int32_t session, Layer layer) {
  std::string name;
  if (session < 0) {
    name = "shared";
  } else {
    name = "s";
    name += std::to_string(session);
  }
  name += ":";
  name += to_string(layer);
  return name;
}

void append_event_json(std::string& out, int pid, const TraceEvent& event) {
  const std::string where = R"(,"pid":)" + std::to_string(pid) +
                            R"(,"tid":)" +
                            std::to_string(lane(event.session, event.layer)) +
                            R"(,"ts":)" + std::to_string(event.at);
  switch (event.kind) {
    case EventKind::kEnqueue:
    case EventKind::kDequeue:
      // Queue depth as a counter track named after the queue.
      out += R"({"name":"queue )";
      append_json_escaped(out, event.label);
      out += R"(","ph":"C")" + where + R"(,"args":{"packets":)" +
             std::to_string(event.value) + R"(,"bytes":)" +
             fixed(event.metric, 0) + "}}";
      return;
    case EventKind::kTcpCwndSample:
      out += R"({"name":"cwnd flow )" + std::to_string(event.flow) +
             R"(","ph":"C")" + where + R"(,"args":{"cwnd":)" +
             fixed(event.metric, 0) + R"(,"ssthresh":)" +
             std::to_string(event.value) + "}}";
      return;
    case EventKind::kTcpRttSample:
      out += R"({"name":"srtt flow )" + std::to_string(event.flow) +
             R"(","ph":"C")" + where + R"(,"args":{"srtt_ms":)" +
             fixed(event.metric, 3) + "}}";
      return;
    default:
      break;
  }
  // Everything else is an instant with the full payload in args.
  out += R"({"name":")" + std::string(to_string(event.kind)) +
         R"(","ph":"i","s":"t")" + where + R"(,"args":{"label":")";
  append_json_escaped(out, event.label);
  out += R"(","flow":)" + std::to_string(event.flow) + R"(,"value":)" +
         std::to_string(event.value) + R"(,"metric":)" +
         fixed(event.metric, 3) + "}}";
}

void append_object_span(std::string& out, int pid, const ObjectRecord& o) {
  const Microseconds start = o.fetch_start >= 0 ? o.fetch_start : 0;
  const Microseconds end = o.complete >= 0 ? o.complete : start;
  out += R"({"name":")";
  append_json_escaped(out, o.url);
  out += R"(","cat":"object","ph":"X","pid":)" + std::to_string(pid) +
         R"(,"tid":)" + std::to_string(lane(o.session, Layer::kBrowser)) +
         R"(,"ts":)" + std::to_string(start) + R"(,"dur":)" +
         std::to_string(end - start) + R"(,"args":{"kind":")";
  append_json_escaped(out, o.kind);
  out += R"(","status":)" + std::to_string(o.status) + R"(,"bytes":)" +
         std::to_string(o.bytes) + R"(,"attempts":)" +
         std::to_string(o.attempts) + R"(,"failed":)" +
         (o.failed ? "true" : "false") + R"(,"dns_start":)" +
         std::to_string(o.dns_start) + R"(,"dns_done":)" +
         std::to_string(o.dns_done) + R"(,"connect_done":)" +
         std::to_string(o.connect_done) + R"(,"request_sent":)" +
         std::to_string(o.request_sent) + R"(,"first_byte":)" +
         std::to_string(o.first_byte) + R"(,"error":")";
  append_json_escaped(out, o.error);
  out += R"("}})";
}

void append_page_span(std::string& out, int pid, const PageRecord& p) {
  out += R"({"name":"page )";
  append_json_escaped(out, p.url);
  out += R"(","cat":"page","ph":"X","pid":)" + std::to_string(pid) +
         R"(,"tid":)" + std::to_string(lane(p.session, Layer::kBrowser)) +
         R"(,"ts":)" + std::to_string(p.started_at) + R"(,"dur":)" +
         std::to_string(p.plt) + R"(,"args":{"success":)" +
         (p.success ? "true" : "false") + R"(,"degraded_plt_ms":)" +
         fixed(to_ms(p.degraded_plt), 3) + "}}";
}

// ---- HAR ------------------------------------------------------------------

// Deterministic fake epoch: virtual time 0 maps to this instant (the
// SIGCOMM '14 presentation week). Real wall time never enters a trace.
constexpr const char* kEpochPrefix = "2014-08-";
constexpr int kEpochDay = 17;

std::string iso_date(Microseconds at) {
  if (at < 0) {
    at = 0;
  }
  const std::int64_t total_ms = at / 1000;
  const std::int64_t ms = total_ms % 1000;
  const std::int64_t total_s = total_ms / 1000;
  const std::int64_t s = total_s % 60;
  const std::int64_t total_min = total_s / 60;
  const std::int64_t min = total_min % 60;
  const std::int64_t total_h = total_min / 60;
  const std::int64_t h = total_h % 24;
  const std::int64_t day = kEpochDay + total_h / 24;  // August has 31 days;
  // virtual loads never span two weeks, so no month rollover in practice.
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer),
                "%s%02" PRId64 "T%02" PRId64 ":%02" PRId64 ":%02" PRId64
                ".%03" PRId64 "Z",
                kEpochPrefix, day, h, min, s, ms);
  return buffer;
}

std::string har_page_id(int load_index, std::int32_t session) {
  return "load" + std::to_string(load_index) + ".s" + std::to_string(session);
}

// Phase duration in ms, or fallback when a boundary was never reached.
double span_ms(Microseconds from, Microseconds to, double fallback) {
  if (from < 0 || to < 0 || to < from) {
    return fallback;
  }
  return to_ms(to - from);
}

}  // namespace

std::string to_chrome_trace(const TraceMeta& meta,
                            const std::vector<LoadTrace>& loads) {
  std::string out;
  out.reserve(1 << 16);
  out += R"({"displayTimeUnit":"ms","otherData":{"experiment":")";
  append_json_escaped(out, meta.experiment);
  out += R"(","cell":")";
  append_json_escaped(out, meta.cell_label);
  out += R"(","cell_index":)" + std::to_string(meta.cell_index) +
         R"(,"cell_seed":)" + std::to_string(meta.cell_seed) +
         R"(},"traceEvents":[)";
  bool first = true;
  const auto next_event = [&] {
    if (!first) {
      out += ",\n";
    }
    first = false;
  };
  for (const LoadTrace& load : loads) {
    const int pid = load.load_index;
    next_event();
    out += R"({"name":"process_name","ph":"M","pid":)" + std::to_string(pid) +
           R"(,"args":{"name":"load )" + std::to_string(pid) + R"("}})";
    // Name each (session, layer) lane that actually carries events. An
    // ordered set keeps metadata order deterministic.
    std::map<std::int64_t, std::string> lanes;
    for (const TraceEvent& event : load.buffer.events) {
      lanes.emplace(lane(event.session, event.layer),
                    lane_name(event.session, event.layer));
    }
    for (const ObjectRecord& object : load.buffer.objects) {
      lanes.emplace(lane(object.session, Layer::kBrowser),
                    lane_name(object.session, Layer::kBrowser));
    }
    for (const PageRecord& page : load.buffer.pages) {
      lanes.emplace(lane(page.session, Layer::kBrowser),
                    lane_name(page.session, Layer::kBrowser));
    }
    for (const auto& [tid, name] : lanes) {
      next_event();
      out += R"({"name":"thread_name","ph":"M","pid":)" +
             std::to_string(pid) + R"(,"tid":)" + std::to_string(tid) +
             R"(,"args":{"name":")";
      append_json_escaped(out, name);
      out += R"("}})";
    }
    for (const TraceEvent& event : load.buffer.events) {
      next_event();
      append_event_json(out, pid, event);
    }
    for (const ObjectRecord& object : load.buffer.objects) {
      next_event();
      append_object_span(out, pid, object);
    }
    for (const PageRecord& page : load.buffer.pages) {
      next_event();
      append_page_span(out, pid, page);
    }
  }
  out += "]}\n";
  return out;
}

std::string to_har(const TraceMeta& meta, const std::vector<LoadTrace>& loads) {
  std::string out;
  out.reserve(1 << 16);
  out += R"({"log":{"version":"1.2","creator":{"name":"mahimahi-obs",)"
         R"("version":"1"},"comment":"experiment=)";
  append_json_escaped(out, meta.experiment);
  out += " cell=" + std::to_string(meta.cell_index) + " label=";
  append_json_escaped(out, meta.cell_label);
  out += " seed=" + std::to_string(meta.cell_seed) + R"(","pages":[)";
  bool first = true;
  for (const LoadTrace& load : loads) {
    for (const PageRecord& page : load.buffer.pages) {
      if (!first) {
        out += ",\n";
      }
      first = false;
      out += R"({"startedDateTime":")" + iso_date(page.started_at) +
             R"(","id":")" + har_page_id(load.load_index, page.session) +
             R"(","title":")";
      append_json_escaped(out, page.url);
      out += R"(","pageTimings":{"onContentLoad":-1,"onLoad":)" +
             fixed(to_ms(page.plt), 3) + R"(},"_success":)" +
             (page.success ? "true" : "false") + R"(,"_degraded_plt_ms":)" +
             fixed(to_ms(page.degraded_plt), 3) + "}";
    }
  }
  out += R"(],"entries":[)";
  first = true;
  for (const LoadTrace& load : loads) {
    for (const ObjectRecord& o : load.buffer.objects) {
      if (!first) {
        out += ",\n";
      }
      first = false;
      const Microseconds start = o.fetch_start >= 0 ? o.fetch_start : 0;
      const Microseconds end = o.complete >= 0 ? o.complete : start;
      const double total_ms = to_ms(end - start);
      const double dns_ms = span_ms(o.dns_start, o.dns_done, -1.0);
      // Connect counts from name resolution (or fetch start) to handshake
      // completion; blocked then covers handshake→request. A multiplexed
      // request queued pre-connect timestamps "sent" at queue time, so its
      // connect_done can exceed request_sent — that inversion falls back
      // to the pre-connect accounting (connect -1, whole gap blocked).
      double connect_ms = -1.0;
      double blocked_ms = span_ms(o.dns_done, o.request_sent, -1.0);
      if (o.connect_done >= 0 && o.connect_done <= o.request_sent) {
        const Microseconds connect_from =
            o.dns_done >= 0 ? o.dns_done : o.fetch_start;
        connect_ms = span_ms(connect_from, o.connect_done, -1.0);
        blocked_ms = span_ms(o.connect_done, o.request_sent, -1.0);
      }
      // wait = request to first response byte; receive = rest of the
      // body. Without a first-byte mark (multiplexed transports) the whole
      // response interval counts as wait and receive is 0.
      double wait_ms = 0;
      double receive_ms = 0;
      if (o.request_sent >= 0) {
        if (o.first_byte >= 0) {
          wait_ms = span_ms(o.request_sent, o.first_byte, 0.0);
          receive_ms = span_ms(o.first_byte, end, 0.0);
        } else {
          wait_ms = span_ms(o.request_sent, end, 0.0);
        }
      }
      out += R"({"pageref":")" + har_page_id(load.load_index, o.session) +
             R"(","startedDateTime":")" + iso_date(o.fetch_start) +
             R"(","time":)" + fixed(total_ms, 3) +
             R"(,"request":{"method":"GET","url":")";
      append_json_escaped(out, o.url);
      out += R"(","httpVersion":"HTTP/1.1","cookies":[],"headers":[],)"
             R"("queryString":[],"headersSize":-1,"bodySize":0},)"
             R"("response":{"status":)" + std::to_string(o.status) +
             R"(,"statusText":"","httpVersion":"HTTP/1.1","cookies":[],)"
             R"("headers":[],"content":{"size":)" + std::to_string(o.bytes) +
             R"(,"mimeType":")";
      append_json_escaped(out, o.kind);
      out += R"("},"redirectURL":"","headersSize":-1,"bodySize":)" +
             std::to_string(o.bytes) + R"(},"cache":{},"timings":{"blocked":)" +
             fixed(blocked_ms, 3) + R"(,"dns":)" + fixed(dns_ms, 3) +
             R"(,"connect":)" + fixed(connect_ms, 3) +
             R"(,"ssl":-1,"send":0,"wait":)" + fixed(wait_ms, 3) +
             R"(,"receive":)" + fixed(receive_ms, 3) + R"(},"_attempts":)" +
             std::to_string(o.attempts) + R"(,"_failed":)" +
             (o.failed ? "true" : "false") + R"(,"_error":")";
      append_json_escaped(out, o.error);
      out += R"("})";
    }
  }
  out += "]}}\n";
  return out;
}

std::string to_csv(const TraceMeta& meta, const std::vector<LoadTrace>& loads) {
  std::string out;
  out.reserve(1 << 16);
  out += "# mahimahi-obs-trace-v1 experiment=" + csv_field(meta.experiment) +
         " cell=" + std::to_string(meta.cell_index) + " label=" +
         csv_field(meta.cell_label) + " seed=" +
         std::to_string(meta.cell_seed) + "\n";
  out += "load,session,t_us,layer,kind,flow,value,metric,label,detail\n";
  for (const LoadTrace& load : loads) {
    const std::string prefix = std::to_string(load.load_index) + ",";
    for (const TraceEvent& e : load.buffer.events) {
      out += prefix + std::to_string(e.session) + "," +
             std::to_string(e.at) + "," + std::string(to_string(e.layer)) +
             "," + std::string(to_string(e.kind)) + "," +
             std::to_string(e.flow) + "," + std::to_string(e.value) + "," +
             fixed(e.metric, 6) + "," + csv_field(e.label) + ",\n";
    }
    for (const ObjectRecord& o : load.buffer.objects) {
      const Microseconds start = o.fetch_start >= 0 ? o.fetch_start : 0;
      const Microseconds end = o.complete >= 0 ? o.complete : start;
      out += prefix + std::to_string(o.session) + "," +
             std::to_string(start) + ",browser,object,0," +
             std::to_string(o.bytes) + "," +
             fixed(to_ms(end - start), 6) + "," + csv_field(o.url) + "," +
             "kind=" + csv_field(o.kind) + ";status=" +
             std::to_string(o.status) + ";attempts=" +
             std::to_string(o.attempts) + ";failed=" + (o.failed ? "1" : "0") +
             ";dns_start_us=" + std::to_string(o.dns_start) +
             ";dns_done_us=" + std::to_string(o.dns_done) +
             ";connect_us=" + std::to_string(o.connect_done) +
             ";request_us=" + std::to_string(o.request_sent) +
             ";first_byte_us=" + std::to_string(o.first_byte) +
             ";complete_us=" + std::to_string(o.complete) +
             ";error=" + csv_field(o.error) + "\n";
    }
    for (const PageRecord& p : load.buffer.pages) {
      out += prefix + std::to_string(p.session) + "," +
             std::to_string(p.started_at) + ",browser,page,0," +
             (p.success ? "1" : "0") + "," + fixed(to_ms(p.plt), 6) + "," +
             csv_field(p.url) + ",degraded_ms=" +
             fixed(to_ms(p.degraded_plt), 3) + "\n";
    }
  }
  return out;
}

}  // namespace mahimahi::obs
