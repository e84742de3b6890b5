#include "obs/export.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <string>

namespace tdam::obs {

namespace {

// Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; anything else → '_'.
std::string sanitize_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) != 0;
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    const bool ok = alpha || c == '_' || c == ':' || (digit && i > 0);
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out.push_back('_');
  return out;
}

// Label values escape backslash, double-quote and newline.
std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

// HELP text escapes backslash and newline (quotes are legal there).
std::string escape_help(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

// %.17g round-trips doubles exactly and prints integers without noise.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Renders {k="v",...}; extra appends one more pair (used for le="...").
std::string label_block(const Labels& labels,
                        const std::pair<std::string, std::string>* extra =
                            nullptr) {
  if (labels.empty() && extra == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += sanitize_name(k) + "=\"" + escape_label_value(v) + "\"";
  }
  if (extra != nullptr) {
    if (!first) out += ',';
    out += sanitize_name(extra->first) + "=\"" +
           escape_label_value(extra->second) + "\"";
  }
  out += '}';
  return out;
}

// HELP/TYPE must appear once per family even when several label sets share
// a name; callers walk instruments in registration order and consult this.
void emit_header(std::ostream& out, std::string& last_family,
                 const std::string& family, const std::string& help,
                 const char* type) {
  if (family == last_family) return;
  last_family = family;
  out << "# HELP " << family << ' ' << escape_help(help) << '\n';
  out << "# TYPE " << family << ' ' << type << '\n';
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void json_labels(std::ostream& out, const Labels& labels) {
  out << '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(k) << "\":\"" << json_escape(v) << '"';
  }
  out << '}';
}

const char* mode_name(TraceMode mode) {
  switch (mode) {
    case TraceMode::kOff: return "off";
    case TraceMode::kSampled: return "sampled";
    case TraceMode::kFull: return "full";
  }
  return "off";
}

// One span object; the original server-stage fields come first so
// pre-wire-tracing consumers keep parsing, the wire stages and metadata
// append after.
void json_span(std::ostream& out, const SpanRecord& span) {
  out << "{\"trace_id\":" << span.trace_id << ",\"status\":" << span.status
      << ",\"enqueue_ns\":" << span.enqueue_ns << ",\"admit_ns\":"
      << span.admit_ns << ",\"batch_form_ns\":" << span.batch_form_ns
      << ",\"dispatch_ns\":" << span.dispatch_ns << ",\"fulfill_ns\":"
      << span.fulfill_ns << ",\"scan_ns\":" << span.scan_ns
      << ",\"merge_ns\":" << span.merge_ns << ",\"io_recv_ns\":"
      << span.io_recv_ns << ",\"decode_ns\":" << span.decode_ns
      << ",\"submit_queue_ns\":" << span.submit_queue_ns
      << ",\"encode_ns\":" << span.encode_ns << ",\"io_send_ns\":"
      << span.io_send_ns << ",\"wire\":" << (span.wire() ? "true" : "false")
      << ",\"k\":" << span.k << ",\"generation\":" << span.generation << '}';
}

void json_span_array(std::ostream& out, const std::vector<SpanRecord>& spans) {
  out << '[';
  bool first = true;
  for (const SpanRecord& span : spans) {
    if (!first) out << ',';
    first = false;
    json_span(out, span);
  }
  out << ']';
}

// The recorder section body: "trace":{...},"spans":[...].
void json_trace_section(std::ostream& out, const FlightRecorder& recorder) {
  out << "\"trace\":{\"mode\":\"" << mode_name(recorder.mode())
      << "\",\"sample_every\":" << recorder.config().sample_every
      << ",\"capacity\":" << recorder.capacity()
      << ",\"recorded\":" << recorder.recorded() << "},\"spans\":";
  json_span_array(out, recorder.snapshot());
}

// The slow-log section body: "slow":{threshold, context, spans}.
void json_slow_section(std::ostream& out, const SlowQueryLog& slow) {
  const SlowQueryContext ctx = slow.context();
  out << "\"slow\":{\"enabled\":" << (slow.enabled() ? "true" : "false")
      << ",\"threshold_ns\":" << slow.threshold_ns()
      << ",\"capacity\":" << slow.capacity()
      << ",\"captured\":" << slow.captured() << ",\"backend\":\""
      << json_escape(ctx.backend) << "\",\"metric\":\""
      << json_escape(ctx.metric) << "\",\"shards\":" << ctx.shards
      << ",\"spans\":";
  json_span_array(out, slow.snapshot());
  out << '}';
}

}  // namespace

void export_prometheus(std::ostream& out, const MetricsRegistry& registry) {
  std::string last_family;

  for (const Counter* c : registry.counters()) {
    const std::string family = sanitize_name(c->name());
    emit_header(out, last_family, family, c->help(), "counter");
    out << family << label_block(c->labels()) << ' ' << fmt_double(c->value())
        << '\n';
  }

  for (const Gauge* g : registry.gauges()) {
    const std::string family = sanitize_name(g->name());
    emit_header(out, last_family, family, g->help(), "gauge");
    out << family << label_block(g->labels()) << ' ' << fmt_double(g->value())
        << '\n';
  }

  for (const Histogram* h : registry.histograms()) {
    const std::string family = sanitize_name(h->name());
    emit_header(out, last_family, family, h->help(), "histogram");
    const HistogramSnapshot snap = h->snapshot();

    // Cumulative buckets follow the instrument's geometric edge vector: the
    // first edge (lo) absorbs underflow, and +Inf picks up
    // overflow so _count equals the +Inf bucket as the format requires.
    std::uint64_t cum = snap.underflow;
    std::pair<std::string, std::string> le{"le", fmt_double(snap.edges[0])};
    out << family << "_bucket" << label_block(h->labels(), &le) << ' ' << cum
        << '\n';
    for (std::size_t i = 0; i < snap.counts.size(); ++i) {
      cum += snap.counts[i];
      le.second = fmt_double(snap.edges[i + 1]);
      out << family << "_bucket" << label_block(h->labels(), &le) << ' '
          << cum << '\n';
    }
    cum += snap.overflow;
    le.second = "+Inf";
    out << family << "_bucket" << label_block(h->labels(), &le) << ' ' << cum
        << '\n';
    out << family << "_sum" << label_block(h->labels()) << ' '
        << fmt_double(snap.sum) << '\n';
    out << family << "_count" << label_block(h->labels()) << ' ' << cum
        << '\n';
  }
}

void export_json(std::ostream& out, const MetricsRegistry& registry,
                 const FlightRecorder* recorder, const SlowQueryLog* slow) {
  out << "{\"counters\":[";
  bool first = true;
  for (const Counter* c : registry.counters()) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << json_escape(c->name()) << "\",\"labels\":";
    json_labels(out, c->labels());
    out << ",\"value\":" << fmt_double(c->value()) << '}';
  }

  out << "],\"gauges\":[";
  first = true;
  for (const Gauge* g : registry.gauges()) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << json_escape(g->name()) << "\",\"labels\":";
    json_labels(out, g->labels());
    out << ",\"value\":" << fmt_double(g->value()) << '}';
  }

  out << "],\"histograms\":[";
  first = true;
  for (const Histogram* h : registry.histograms()) {
    if (!first) out << ',';
    first = false;
    const HistogramSnapshot snap = h->snapshot();
    out << "{\"name\":\"" << json_escape(h->name()) << "\",\"labels\":";
    json_labels(out, h->labels());
    out << ",\"lo\":" << fmt_double(snap.lo) << ",\"hi\":"
        << fmt_double(snap.hi) << ",\"bins\":" << snap.counts.size()
        << ",\"kind\":\"exponential\",\"edges\":[";
    for (std::size_t i = 0; i < snap.edges.size(); ++i) {
      if (i != 0) out << ',';
      out << fmt_double(snap.edges[i]);
    }
    out << "],\"underflow\":" << snap.underflow << ",\"overflow\":"
        << snap.overflow << ",\"sum\":" << fmt_double(snap.sum)
        << ",\"count\":" << snap.total() << ",\"counts\":[";
    for (std::size_t i = 0; i < snap.counts.size(); ++i) {
      if (i != 0) out << ',';
      out << snap.counts[i];
    }
    out << "]}";
  }
  out << ']';

  if (recorder != nullptr) {
    out << ',';
    json_trace_section(out, *recorder);
  }
  if (slow != nullptr) {
    out << ',';
    json_slow_section(out, *slow);
  }

  out << "}\n";
}

void export_traces_json(std::ostream& out, const FlightRecorder* recorder,
                        const SlowQueryLog* slow) {
  out << '{';
  if (recorder != nullptr) {
    json_trace_section(out, *recorder);
  } else {
    out << "\"trace\":{\"mode\":\"off\",\"sample_every\":0,\"capacity\":0,"
           "\"recorded\":0},\"spans\":[]";
  }
  out << ',';
  if (slow != nullptr) {
    json_slow_section(out, *slow);
  } else {
    out << "\"slow\":{\"enabled\":false,\"threshold_ns\":-1,\"capacity\":0,"
           "\"captured\":0,\"backend\":\"\",\"metric\":\"\",\"shards\":0,"
           "\"spans\":[]}";
  }
  out << "}\n";
}

}  // namespace tdam::obs
