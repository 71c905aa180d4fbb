#include "common/manifest.hh"

#include <charconv>
#include <sstream>

#include "common/json.hh"
#include "common/knobs.hh"

#ifndef MNOC_GIT_SHA
#define MNOC_GIT_SHA "unknown"
#endif

namespace mnoc {

namespace {

bool
needsEncoding(char ch)
{
    auto byte = static_cast<unsigned char>(ch);
    return byte <= 0x20 || byte == 0x7f || ch == '%';
}

int
hexValue(char ch)
{
    if (ch >= '0' && ch <= '9')
        return ch - '0';
    if (ch >= 'a' && ch <= 'f')
        return ch - 'a' + 10;
    if (ch >= 'A' && ch <= 'F')
        return ch - 'A' + 10;
    return -1;
}

/** Whole-token non-negative decimal parse of @p text into @p out (no
 *  sign, no whitespace, no overflow); @p out is untouched on
 *  failure. */
template <typename T>
bool
parseWhole(const std::string &text, T &out)
{
    T value{};
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || text[0] == '-')
        return false;
    out = value;
    return true;
}

} // namespace

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (char ch : text) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
hexDigest(std::uint64_t value)
{
    const char *digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xf];
        value >>= 4;
    }
    return out;
}

RunManifest
currentManifest(std::uint64_t seed, const std::string &config_digest)
{
    RunManifest manifest;
    manifest.seed = seed;
    manifest.gitSha = MNOC_GIT_SHA;
    manifest.configDigest = config_digest;
    for (const KnobSpec &spec : knobTable()) {
        if (spec.klass != KnobClass::Result)
            continue;
        KnobValue knob = readKnob(spec.name);
        if (knob.set())
            manifest.env.emplace_back(spec.name, knob.raw);
    }
    return manifest;
}

std::string
encodeManifestValue(const std::string &value)
{
    const char *digits = "0123456789abcdef";
    std::string out;
    out.reserve(value.size());
    for (char ch : value) {
        if (needsEncoding(ch)) {
            auto byte = static_cast<unsigned char>(ch);
            out += '%';
            out += digits[(byte >> 4) & 0xf];
            out += digits[byte & 0xf];
        } else {
            out += ch;
        }
    }
    // An empty value still needs to be one token.
    return out.empty() ? std::string("%") : out;
}

std::string
decodeManifestValue(const std::string &text)
{
    if (text == "%")
        return "";
    std::string out;
    out.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '%' && i + 2 < text.size() &&
            hexValue(text[i + 1]) >= 0 && hexValue(text[i + 2]) >= 0) {
            int byte = hexValue(text[i + 1]) * 16 +
                       hexValue(text[i + 2]);
            out += static_cast<char>(byte);
            i += 2;
        } else {
            out += text[i];
        }
    }
    return out;
}

std::vector<std::string>
manifestLines(const RunManifest &manifest)
{
    std::vector<std::string> lines;
    lines.push_back("seed " + std::to_string(manifest.seed));
    lines.push_back("git " + encodeManifestValue(manifest.gitSha));
    lines.push_back("config " +
                    encodeManifestValue(manifest.configDigest));
    for (const auto &[name, value] : manifest.env)
        lines.push_back("env " + name + " " +
                        encodeManifestValue(value));
    return lines;
}

bool
setManifestField(RunManifest &manifest, const std::string &key,
                 const std::string &a, const std::string &b)
{
    if (key == "seed")
        return parseWhole(a, manifest.seed);
    if (key == "git")
        manifest.gitSha = decodeManifestValue(a);
    else if (key == "config")
        manifest.configDigest = decodeManifestValue(a);
    else if (key == "env")
        manifest.env.emplace_back(a, decodeManifestValue(b));
    // Unknown keys -- the `threads` entry older builds wrote among
    // them -- are skipped, so old artifacts and newer writers both
    // stay readable.
    return true;
}

bool
parseManifestEntry(const std::string &line, RunManifest &manifest)
{
    std::istringstream in(line);
    std::string key, a, b;
    if (!(in >> key >> a))
        return false;
    if (key == "env" && !(in >> b))
        return false;
    std::string extra;
    if (in >> extra)
        return false;
    return setManifestField(manifest, key, a, b);
}

std::string
manifestJson(const RunManifest &manifest)
{
    std::string out = "{\"seed\": " + std::to_string(manifest.seed);
    out += ", \"git\": \"" + escapeJson(manifest.gitSha) + "\"";
    out += ", \"config\": \"" + escapeJson(manifest.configDigest) +
           "\"";
    out += ", \"env\": {";
    const char *sep = "";
    for (const auto &[name, value] : manifest.env) {
        out += sep;
        out += '"';
        out += escapeJson(name);
        out += "\": \"";
        out += escapeJson(value);
        out += '"';
        sep = ", ";
    }
    out += "}}";
    return out;
}

} // namespace mnoc
