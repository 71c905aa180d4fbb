#include "common/journal.hh"

#include <cstring>
#include <iomanip>
#include <map>
#include <sstream>

#include "common/io.hh"
#include "common/json.hh"
#include "common/knobs.hh"
#include "common/log.hh"

namespace mnoc {

namespace {

constexpr char kHeaderMagic[8] = {'M', 'N', 'O', 'C', 'J', 'R', 'N', 'L'};
constexpr char kEndMagic[8] = {'M', 'N', 'O', 'C', 'J', 'E', 'N', 'D'};

constinit CollectorSwitch journal_switch("MNOC_JOURNAL",
                                         "mnoc_journal.mjrn");

/** Deterministic human rendering of a real (explain narrative and
 *  timeline CSV; JSONL uses jsonNumber instead). */
std::string
formatReal(double value)
{
    std::ostringstream out;
    out << std::scientific << std::setprecision(6) << value;
    return out.str();
}

void
appendU32(std::string &out, std::uint32_t value)
{
    char bytes[4];
    std::memcpy(bytes, &value, sizeof(bytes));
    out.append(bytes, sizeof(bytes));
}

void
appendU64(std::string &out, std::uint64_t value)
{
    char bytes[8];
    std::memcpy(bytes, &value, sizeof(bytes));
    out.append(bytes, sizeof(bytes));
}

void
appendF64(std::string &out, double value)
{
    char bytes[8];
    std::memcpy(bytes, &value, sizeof(bytes));
    out.append(bytes, sizeof(bytes));
}

std::uint32_t
readU32(const std::string &bytes, std::size_t offset)
{
    std::uint32_t value = 0;
    std::memcpy(&value, bytes.data() + offset, sizeof(value));
    return value;
}

std::uint64_t
readU64(const std::string &bytes, std::size_t offset)
{
    std::uint64_t value = 0;
    std::memcpy(&value, bytes.data() + offset, sizeof(value));
    return value;
}

double
readF64(const std::string &bytes, std::size_t offset)
{
    double value = 0;
    std::memcpy(&value, bytes.data() + offset, sizeof(value));
    return value;
}

void
appendRecord(std::string &out, const JournalRecord &rec)
{
    appendU32(out, static_cast<std::uint32_t>(rec.kind));
    appendU64(out, rec.epoch);
    appendU32(out, rec.numInts);
    appendU32(out, rec.numReals);
    for (std::size_t i = 0; i < JournalRecord::kMaxInts; ++i)
        appendU64(out, static_cast<std::uint64_t>(rec.ints[i]));
    for (std::size_t i = 0; i < JournalRecord::kMaxReals; ++i)
        appendF64(out, rec.reals[i]);
}

/** Field names for the fixed int/real slots of each kind (JSONL keys
 *  and explain detail labels).  PhaseSignature's real slots past
 *  "distance" form the signature vector and are rendered specially. */
struct FieldNames
{
    std::vector<const char *> ints;
    std::vector<const char *> reals;
};

const FieldNames &
fieldNamesFor(JournalKind kind)
{
    static const FieldNames phase_signature{{"buckets"}, {"distance"}};
    static const FieldNames phase_change{{}, {"distance"}};
    static const FieldNames retarget{{"slot", "window_first", "window_last"},
                                     {}};
    static const FieldNames price{{"candidate", "suffix_epochs"},
                                  {"active_j", "challenger_j", "gain"}};
    static const FieldNames switch_{{"from", "to", "streak"},
                                    {"gain", "energy_j"}};
    static const FieldNames retire{{"candidate"}, {}};
    static const FieldNames expire{{"candidate", "built_at"}, {}};
    static const FieldNames degrade{{"source", "mode", "streak"},
                                    {"trim_db", "energy_j"}};
    static const FieldNames fault{{"fault", "node", "mode"}, {"magnitude"}};
    static const FieldNames boundary{{"cells", "packets", "flits"}, {}};
    static const FieldNames reconcile{{},
                                      {"ledger_j", "log_j", "residual_j"}};
    static const FieldNames margin{{"active_faults", "actions", "modes"},
                                   {"before_db", "after_db", "reconfig_j"}};
    static const FieldNames none{{}, {}};

    switch (kind) {
    case JournalKind::PhaseSignature: return phase_signature;
    case JournalKind::PhaseChange: return phase_change;
    case JournalKind::Retarget: return retarget;
    case JournalKind::Price: return price;
    case JournalKind::Switch: return switch_;
    case JournalKind::Retire: return retire;
    case JournalKind::Expire: return expire;
    case JournalKind::Trim:
    case JournalKind::Relax:
    case JournalKind::Failover:
    case JournalKind::Restore:
    case JournalKind::Collapse: return degrade;
    case JournalKind::FaultStart:
    case JournalKind::FaultEnd: return fault;
    case JournalKind::EpochBoundary: return boundary;
    case JournalKind::Reconcile: return reconcile;
    case JournalKind::Margin: return margin;
    }
    return none;
}

} // namespace

const char *
journalKindName(JournalKind kind)
{
    static const char *const names[kJournalKindCount + 1] = {
        "",         "phase_signature", "phase_change", "retarget",
        "price",    "switch",          "retire",       "expire",
        "trim",     "relax",           "failover",     "restore",
        "collapse", "fault_start",     "fault_end",    "epoch_boundary",
        "reconcile", "margin",
    };
    auto index = static_cast<std::uint32_t>(kind);
    panicIf(index == 0 || index > kJournalKindCount,
            "journalKindName: invalid kind");
    return names[index];
}

JournalRecord &
JournalRecord::addInt(std::int64_t v)
{
    panicIf(numInts >= kMaxInts, "journal record int slots exhausted");
    ints[numInts++] = v;
    return *this;
}

JournalRecord &
JournalRecord::addReal(double v)
{
    panicIf(numReals >= kMaxReals, "journal record real slots exhausted");
    reals[numReals++] = v;
    return *this;
}

bool
journalEnabled()
{
    return journal_switch.enabled();
}

Journal &
Journal::global()
{
    static Journal *instance = [] {
        auto *journal = new Journal();
        journal_switch.exportAtExit(
            [] { global().writeFile(exportPath()); });
        return journal;
    }();
    return *instance;
}

std::string
Journal::exportPath()
{
    return journal_switch.exportPath();
}

void
Journal::setEnabled(bool on)
{
    journal_switch.setEnabled(on);
}

void
Journal::record(const JournalRecord &rec)
{
    std::lock_guard<std::mutex> guard(mutex_);
    records_.push_back(rec);
}

void
Journal::setManifest(const std::string &manifest_json)
{
    std::lock_guard<std::mutex> guard(mutex_);
    manifestJson_ = manifest_json;
}

std::string
Journal::toBinary() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    std::string out;
    out.append(kHeaderMagic, sizeof(kHeaderMagic));
    appendU32(out, kJournalVersion);
    fatalIf(manifestJson_.size() > (std::uint32_t(1) << 24),
            "journal manifest stamp is implausibly large");
    appendU32(out, static_cast<std::uint32_t>(manifestJson_.size()));
    out.append(manifestJson_);
    out.reserve(out.size() + records_.size() * kJournalRecordBytes + 16);
    for (const JournalRecord &rec : records_)
        appendRecord(out, rec);
    out.append(kEndMagic, sizeof(kEndMagic));
    appendU64(out, records_.size());
    return out;
}

void
Journal::writeFile(const std::string &path) const
{
    std::string bytes = toBinary();
    FileWriter writer(path, /*binary=*/true);
    writer.stream().write(bytes.data(),
                          static_cast<std::streamsize>(bytes.size()));
    writer.failIfBad();
    writer.close();
}

std::vector<JournalRecord>
Journal::snapshot() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return records_;
}

std::size_t
Journal::size() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return records_.size();
}

void
Journal::reset()
{
    std::lock_guard<std::mutex> guard(mutex_);
    records_.clear();
    manifestJson_.clear();
}

JournalFile
loadJournal(const std::string &path)
{
    const std::string bytes = readWholeFile(path, "journal");

    auto truncated = [&](const std::string &what, std::size_t at) {
        fatal(path + ": truncated journal: missing " + what + " at byte " +
              std::to_string(at));
    };

    if (bytes.size() < sizeof(kHeaderMagic))
        truncated("header magic", bytes.size());
    if (std::memcmp(bytes.data(), kHeaderMagic, sizeof(kHeaderMagic)) != 0)
        fatal(path + ": not a journal file (bad magic at byte 0)");
    std::size_t offset = sizeof(kHeaderMagic);

    if (bytes.size() < offset + 4)
        truncated("header version", offset);
    std::uint32_t version = readU32(bytes, offset);
    if (version != kJournalVersion)
        fatal(path + ": unsupported journal version " +
              std::to_string(version) + " at byte " + std::to_string(offset));
    offset += 4;

    if (bytes.size() < offset + 4)
        truncated("manifest stamp length", offset);
    std::uint32_t stamp_len = readU32(bytes, offset);
    offset += 4;
    if (bytes.size() < offset + stamp_len)
        truncated("manifest stamp", offset);

    JournalFile file;
    file.manifestJson = bytes.substr(offset, stamp_len);
    offset += stamp_len;

    while (true) {
        std::size_t remaining = bytes.size() - offset;
        if (remaining >= sizeof(kEndMagic) &&
            std::memcmp(bytes.data() + offset, kEndMagic,
                        sizeof(kEndMagic)) == 0) {
            offset += sizeof(kEndMagic);
            if (bytes.size() < offset + 8)
                truncated("record count", offset);
            std::uint64_t declared = readU64(bytes, offset);
            offset += 8;
            if (declared != file.records.size())
                fatal(path + ": journal end marker declares " +
                      std::to_string(declared) + " records but file holds " +
                      std::to_string(file.records.size()) + " (at byte " +
                      std::to_string(offset - 8) + ")");
            if (offset != bytes.size())
                fatal(path + ": trailing bytes after journal end "
                      "marker at byte " + std::to_string(offset));
            break;
        }
        if (remaining < kJournalRecordBytes) {
            // Name the kind when enough of the record survived to read it.
            std::string what =
                "record " + std::to_string(file.records.size());
            if (remaining >= 4) {
                std::uint32_t kind = readU32(bytes, offset);
                if (kind >= 1 && kind <= kJournalKindCount)
                    what += " (" +
                            std::string(journalKindName(
                                static_cast<JournalKind>(kind))) +
                            ")";
            }
            truncated(what + " or end marker", offset);
        }

        std::uint32_t kind = readU32(bytes, offset);
        if (kind == 0 || kind > kJournalKindCount)
            fatal(path + ": unknown journal record kind " +
                  std::to_string(kind) + " at byte " + std::to_string(offset));

        JournalRecord rec;
        rec.kind = static_cast<JournalKind>(kind);
        rec.epoch = readU64(bytes, offset + 4);
        rec.numInts = readU32(bytes, offset + 12);
        rec.numReals = readU32(bytes, offset + 16);
        if (rec.numInts > JournalRecord::kMaxInts ||
            rec.numReals > JournalRecord::kMaxReals)
            fatal(path + ": corrupt " +
                  std::string(journalKindName(rec.kind)) +
                  " record: field counts out of range at byte " +
                  std::to_string(offset));
        for (std::size_t i = 0; i < JournalRecord::kMaxInts; ++i)
            rec.ints[i] = static_cast<std::int64_t>(
                readU64(bytes, offset + 20 + i * 8));
        for (std::size_t i = 0; i < JournalRecord::kMaxReals; ++i)
            rec.reals[i] = readF64(bytes, offset + 52 + i * 8);
        file.records.push_back(rec);
        offset += kJournalRecordBytes;
    }
    return file;
}

std::string
journalToJsonl(const JournalFile &file)
{
    std::string out = "{\"journal\": {\"version\": " +
                      std::to_string(kJournalVersion) + ", \"records\": " +
                      std::to_string(file.records.size()) + ", \"manifest\": ";
    out += file.manifestJson.empty() ? std::string("null")
                                     : file.manifestJson;
    out += "}}\n";

    for (const JournalRecord &rec : file.records) {
        const FieldNames &names = fieldNamesFor(rec.kind);
        std::string line = "{\"kind\": \"" +
                           std::string(journalKindName(rec.kind)) +
                           "\", \"epoch\": " + std::to_string(rec.epoch);
        for (std::uint32_t i = 0; i < rec.numInts; ++i) {
            std::string key = i < names.ints.size()
                                  ? names.ints[i]
                                  : "int" + std::to_string(i);
            line += ", \"" + key + "\": " + std::to_string(rec.ints[i]);
        }
        if (rec.kind == JournalKind::PhaseSignature) {
            if (rec.numReals >= 1)
                line += ", \"distance\": " + jsonNumber(rec.reals[0]);
            line += ", \"signature\": [";
            for (std::uint32_t i = 1; i < rec.numReals; ++i) {
                if (i > 1)
                    line += ", ";
                line += jsonNumber(rec.reals[i]);
            }
            line += "]";
        } else {
            for (std::uint32_t i = 0; i < rec.numReals; ++i) {
                std::string key = i < names.reals.size()
                                      ? names.reals[i]
                                      : "real" + std::to_string(i);
                line += ", \"" + key + "\": " + jsonNumber(rec.reals[i]);
            }
        }
        line += "}\n";
        out += line;
    }
    return out;
}

std::string
journalRecordDetail(const JournalRecord &rec)
{
    const FieldNames &names = fieldNamesFor(rec.kind);
    std::string out;
    auto add = [&](const std::string &key, const std::string &value) {
        if (!out.empty())
            out += ' ';
        out += key + "=" + value;
    };
    for (std::uint32_t i = 0; i < rec.numInts; ++i)
        add(i < names.ints.size() ? names.ints[i]
                                  : "int" + std::to_string(i),
            std::to_string(rec.ints[i]));
    if (rec.kind == JournalKind::PhaseSignature) {
        if (rec.numReals >= 1)
            add("distance", formatReal(rec.reals[0]));
        std::string sig = "[";
        for (std::uint32_t i = 1; i < rec.numReals; ++i) {
            if (i > 1)
                sig += ' ';
            sig += formatReal(rec.reals[i]);
        }
        sig += ']';
        add("signature", sig);
    } else {
        for (std::uint32_t i = 0; i < rec.numReals; ++i)
            add(i < names.reals.size() ? names.reals[i]
                                       : "real" + std::to_string(i),
                formatReal(rec.reals[i]));
    }
    return out;
}

namespace {

/** Records bucketed by epoch, ascending, preserving in-epoch order
 *  (reconcile records are appended after the run, so the raw sequence
 *  is not epoch-sorted). */
std::map<std::uint64_t, std::vector<const JournalRecord *>>
byEpoch(const JournalFile &file)
{
    std::map<std::uint64_t, std::vector<const JournalRecord *>> epochs;
    for (const JournalRecord &rec : file.records)
        epochs[rec.epoch].push_back(&rec);
    return epochs;
}

} // namespace

std::string
renderExplainMarkdown(const JournalFile &file)
{
    std::string out = "# mnocpt explain: decision timeline\n\n";
    out += "- manifest: `" +
           (file.manifestJson.empty() ? std::string("(unstamped)")
                                      : file.manifestJson) +
           "`\n";
    out += "- records: " + std::to_string(file.records.size()) + "\n";

    auto epochs = byEpoch(file);
    if (!epochs.empty())
        out += "- epochs: " + std::to_string(epochs.begin()->first) + ".." +
               std::to_string(epochs.rbegin()->first) + "\n";
    out += "\n";

    std::array<std::size_t, kJournalKindCount + 1> counts{};
    for (const JournalRecord &rec : file.records)
        ++counts[static_cast<std::uint32_t>(rec.kind)];
    out += "| kind | count |\n|---|---|\n";
    for (std::uint32_t k = 1; k <= kJournalKindCount; ++k)
        if (counts[k] > 0)
            out += "| " +
                   std::string(journalKindName(static_cast<JournalKind>(k))) +
                   " | " + std::to_string(counts[k]) + " |\n";
    out += "\n";

    for (const auto &[epoch, records] : epochs) {
        out += "## Epoch " + std::to_string(epoch) + "\n\n";
        for (const JournalRecord *rec : records) {
            out += "- `" + std::string(journalKindName(rec->kind)) + "`";
            std::string detail = journalRecordDetail(*rec);
            if (!detail.empty())
                out += " " + detail;
            out += "\n";
        }
        out += "\n";
    }
    return out;
}

std::string
renderExplainTimelineCsv(const JournalFile &file)
{
    std::string out = "# " +
                      (file.manifestJson.empty() ? std::string("(unstamped)")
                                                 : file.manifestJson) +
                      "\n";
    out += "epoch,kind,detail\n";
    for (const auto &[epoch, records] : byEpoch(file))
        for (const JournalRecord *rec : records)
            out += std::to_string(epoch) + "," +
                   journalKindName(rec->kind) + "," +
                   journalRecordDetail(*rec) + "\n";
    return out;
}

std::string
renderExplainTrace(const JournalFile &file)
{
    // Chrome-trace overlay: counter ("C") and instant ("i") events at
    // ts = epoch * 1000 us.  mnocpt profile skips phases other than
    // "X", so this file composes with MNOC_TRACE_SPANS output.
    std::string out = "{\"traceEvents\": [\n";
    bool first = true;
    auto emit = [&](const std::string &event) {
        if (!first)
            out += ",\n";
        first = false;
        out += "  " + event;
    };
    auto counter = [&](std::uint64_t epoch, const std::string &name,
                       const std::string &key, const std::string &value) {
        emit("{\"name\": \"" + name + "\", \"ph\": \"C\", \"ts\": " +
             std::to_string(epoch * 1000) +
             ", \"pid\": 1, \"tid\": 1, \"args\": {\"" + key +
             "\": " + value + "}}");
    };
    auto instant = [&](std::uint64_t epoch, const JournalRecord &rec) {
        emit("{\"name\": \"" + std::string(journalKindName(rec.kind)) +
             "\", \"ph\": \"i\", \"ts\": " + std::to_string(epoch * 1000) +
             ", \"pid\": 1, \"tid\": 1, \"s\": \"g\", \"args\": "
             "{\"detail\": \"" +
             escapeJson(journalRecordDetail(rec)) + "\"}}");
    };

    for (const auto &[epoch, records] : byEpoch(file)) {
        for (const JournalRecord *rec : records) {
            switch (rec->kind) {
            case JournalKind::Switch:
                instant(epoch, *rec);
                if (rec->numInts >= 2)
                    counter(epoch, "active_design", "design",
                            std::to_string(rec->ints[1]));
                break;
            case JournalKind::Margin:
                if (rec->numReals >= 2)
                    counter(epoch, "worst_margin_db", "db",
                            jsonNumber(rec->reals[1]));
                if (rec->numInts >= 2)
                    counter(epoch, "degradation_actions", "count",
                            std::to_string(rec->ints[1]));
                break;
            case JournalKind::PhaseChange:
            case JournalKind::Expire:
            case JournalKind::Trim:
            case JournalKind::Relax:
            case JournalKind::Failover:
            case JournalKind::Restore:
            case JournalKind::Collapse:
            case JournalKind::FaultStart:
            case JournalKind::FaultEnd:
                instant(epoch, *rec);
                break;
            default:
                break;
            }
        }
    }
    out += "\n], \"displayTimeUnit\": \"ms\"}\n";
    return out;
}

} // namespace mnoc
