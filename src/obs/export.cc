#include "obs/export.h"

#include <set>

#include "common/json_writer.h"
#include "obs/json_reader.h"

namespace btrace {

namespace {

/** A metric value in the Prometheus text: JsonWriter's metric rule. */
std::string
formatValue(double v)
{
    std::string out;
    JsonWriter(out).metric(v);
    return out;
}

/** Prometheus label-value escaping: backslash, quote, newline. */
void
promEscapeTo(std::string &out, const std::string &v)
{
    for (char c : v) {
        if (c == '\\') out += "\\\\";
        else if (c == '"') out += "\\\"";
        else if (c == '\n') out += "\\n";
        else out += c;
    }
}

/** Render `{label="v",...}`; empty string when there are no labels. */
std::string
promLabels(const ObsLabels &labels, const std::string &extra = {})
{
    if (labels.empty() && extra.empty()) return "";
    std::string out = "{";
    bool first = true;
    for (const auto &kv : labels) {
        if (!first) out += ",";
        first = false;
        out += kv.first + "=\"";
        promEscapeTo(out, kv.second);
        out += "\"";
    }
    if (!extra.empty()) {
        if (!first) out += ",";
        out += extra;
    }
    out += "}";
    return out;
}

/** Series labels (MetricValue::labels) as a promLabels `extra` run. */
std::string
seriesLabelRun(const MetricLabels &labels)
{
    std::string out;
    bool first = true;
    for (const auto &kv : labels) {
        if (!first) out += ",";
        first = false;
        out += kv.first + "=\"";
        promEscapeTo(out, kv.second);
        out += "\"";
    }
    return out;
}

bool
copyNumberMap(const JsonValue *v, std::map<std::string, double> &out)
{
    if (v == nullptr) return true; // section optional
    if (v->type != JsonValue::Type::Object) return false;
    for (const auto &kv : v->obj) {
        if (kv.second.type != JsonValue::Type::Number) return false;
        out[kv.first] = kv.second.num;
    }
    return true;
}

} // namespace

std::string
renderJsonLine(const ObsSample &sample)
{
    std::string out;
    out.reserve(1024);
    JsonWriter w(out);
    w.beginObject().field("seq", sample.seq);
    w.key("t_sec").fixed(sample.tSec, 6);

    w.key("labels").beginObject();
    for (const auto &kv : sample.labels)
        w.field(kv.first, kv.second);
    w.endObject();

    const auto metrics =
        [&w](const char *name,
             const std::vector<std::pair<std::string, double>> &kvs) {
            w.key(name).beginObject();
            for (const auto &kv : kvs)
                w.key(kv.first).metric(kv.second);
            w.endObject();
        };
    metrics("counters", sample.counters);
    metrics("rates", sample.rates);
    metrics("gauges", sample.gauges);

    w.key("histograms").beginObject();
    for (const HistogramValue &h : sample.histograms) {
        w.key(h.name).beginObject();
        w.field("count", h.count).field("sum", h.sum).field("p50", h.p50);
        w.field("p99", h.p99).field("p999", h.p999).field("max", h.max);
        w.endObject();
    }
    w.endObject();

    w.key("health").beginArray();
    for (const HealthEvent &e : sample.health) {
        w.beginObject().field("kind", healthKindName(e.kind));
        w.field("detail", e.detail).endObject();
    }
    w.endArray().endObject();
    return out;
}

std::string
renderPrometheus(const MetricsRegistry::Collected &collected,
                 const ObsLabels &labels)
{
    std::string out;
    out.reserve(2048);
    const std::string lbl = promLabels(labels);

    // A labeled family (several series sharing one name) must be
    // announced exactly once — duplicate # TYPE lines are invalid
    // exposition (and scripts/check_obs_schema.py rejects them).
    std::set<std::string> announced;
    for (const MetricValue &m : collected.metrics) {
        if (announced.insert(m.name).second) {
            out += "# HELP " + m.name + " " + m.help + "\n";
            out += "# TYPE " + m.name + " ";
            out += (m.kind == MetricKind::Counter) ? "counter"
                                                   : "gauge";
            out += "\n";
        }
        out += m.name + promLabels(labels, seriesLabelRun(m.labels)) +
               " " + formatValue(m.value) + "\n";
    }

    for (const HistogramValue &h : collected.histograms) {
        // Native Prometheus histogram: cumulative le-bounded buckets
        // (occupied buckets only — the log-linear grid is ~500 wide),
        // the mandatory +Inf bucket, then _sum and _count.
        out += "# HELP " + h.name + " " + h.help + "\n";
        out += "# TYPE " + h.name + " histogram\n";
        for (const auto &b : h.buckets) {
            out += h.name + "_bucket" +
                   promLabels(labels,
                              "le=\"" + formatValue(double(b.first)) +
                                  "\"") +
                   " " + formatValue(static_cast<double>(b.second)) +
                   "\n";
        }
        out += h.name + "_bucket" + promLabels(labels, "le=\"+Inf\"") +
               " " + formatValue(static_cast<double>(h.count)) + "\n";
        out += h.name + "_sum" + lbl + " " +
               formatValue(static_cast<double>(h.sum)) + "\n";
        out += h.name + "_count" + lbl + " " +
               formatValue(static_cast<double>(h.count)) + "\n";
    }
    return out;
}

ParsedObsLine
parseObsLine(const std::string &line)
{
    ParsedObsLine out;
    JsonValue root;
    JsonReader reader(line);
    if (!reader.parse(root) || root.type != JsonValue::Type::Object) {
        out.error = reader.error.empty() ? "not a JSON object"
                                         : reader.error;
        return out;
    }

    const JsonValue *seq = root.find("seq");
    const JsonValue *t = root.find("t_sec");
    if (seq == nullptr || seq->type != JsonValue::Type::Number ||
        t == nullptr || t->type != JsonValue::Type::Number) {
        out.error = "missing seq/t_sec";
        return out;
    }
    out.seq = static_cast<uint64_t>(seq->num);
    out.tSec = t->num;

    if (const JsonValue *v = root.find("labels")) {
        if (v->type != JsonValue::Type::Object) {
            out.error = "labels not an object";
            return out;
        }
        for (const auto &kv : v->obj) {
            if (kv.second.type != JsonValue::Type::String) {
                out.error = "label value not a string";
                return out;
            }
            out.labels[kv.first] = kv.second.str;
        }
    }

    if (!copyNumberMap(root.find("counters"), out.counters) ||
        !copyNumberMap(root.find("rates"), out.rates) ||
        !copyNumberMap(root.find("gauges"), out.gauges)) {
        out.error = "non-numeric counter/rate/gauge value";
        return out;
    }

    if (const JsonValue *v = root.find("histograms")) {
        if (v->type != JsonValue::Type::Object) {
            out.error = "histograms not an object";
            return out;
        }
        for (const auto &kv : v->obj) {
            if (!copyNumberMap(&kv.second, out.histograms[kv.first])) {
                out.error = "non-numeric histogram field";
                return out;
            }
        }
    }

    if (const JsonValue *v = root.find("health")) {
        if (v->type != JsonValue::Type::Array) {
            out.error = "health not an array";
            return out;
        }
        for (const JsonValue &e : v->arr) {
            const JsonValue *kind =
                e.type == JsonValue::Type::Object ? e.find("kind")
                                                  : nullptr;
            if (kind == nullptr ||
                kind->type != JsonValue::Type::String) {
                out.error = "health entry without kind";
                return out;
            }
            out.healthKinds.push_back(kind->str);
        }
    }

    out.ok = true;
    return out;
}

} // namespace btrace
