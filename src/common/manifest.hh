/**
 * @file
 * Run manifests: the provenance block embedded in every artifact the
 * tree writes (trace files, design files, BENCH_*.json), recording
 * enough to re-run the exact experiment from the artifact alone --
 * the seed, the git revision of the build, the result-class knobs
 * that are set (common/knobs.hh), and a digest of the configuration
 * that produced the artifact.  Execution and observability knobs --
 * the thread-pool size among them -- are never stamped, so artifact
 * bytes do not depend on them.
 *
 * Two serializations exist:
 *   - a line/token text block ("manifest <n>" + n entries) embedded
 *     in the line-oriented trace and design formats; values are
 *     percent-encoded so they always form a single token;
 *   - a JSON object (manifestJson) embedded in the JSON artifacts.
 * Both are byte-deterministic for a fixed manifest, so golden-file
 * tests can cover them.
 */

#ifndef MNOC_COMMON_MANIFEST_HH
#define MNOC_COMMON_MANIFEST_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mnoc {

/** Provenance of one run, embedded in its artifacts. */
struct RunManifest
{
    /** Workload / solver seed of the run (0 when seedless). */
    std::uint64_t seed = 0;
    /** Git revision the binary was built from ("unknown" outside a
     *  checkout). */
    std::string gitSha;
    /** Caller-supplied digest of the producing configuration. */
    std::string configDigest;
    /** Result-class knobs that were set, as (name, value). */
    std::vector<std::pair<std::string, std::string>> env;
};

/** FNV-1a 64-bit hash, used for config digests. */
std::uint64_t fnv1a64(const std::string &text);

/** 16-hex-digit rendering of a digest value. */
std::string hexDigest(std::uint64_t value);

/**
 * The manifest of the current process: compiled-in git SHA and the
 * result-class knobs that are set, in knob-table order.
 */
RunManifest currentManifest(std::uint64_t seed = 0,
                            const std::string &config_digest = "");

/** Percent-encode @p value so it is one whitespace-free token. */
std::string encodeManifestValue(const std::string &value);

/** Invert encodeManifestValue. */
std::string decodeManifestValue(const std::string &text);

/**
 * The text-block body: one "key value" (or "env name value") line
 * per entry, in fixed order (seed, git, config, env...).
 * The block header is "manifest <lines.size()>".
 */
std::vector<std::string> manifestLines(const RunManifest &manifest);

/**
 * Apply one parsed entry to @p manifest.  @p key is the first token
 * of the line; for "env" entries @p a is the knob name and @p b its
 * encoded value, otherwise @p a is the encoded value and @p b is
 * ignored.  Unknown keys are ignored (forward compatibility), and so
 * is the `threads` entry older builds wrote.  Returns false when a
 * `seed` value is not a whole unsigned 64-bit number.
 */
bool setManifestField(RunManifest &manifest, const std::string &key,
                      const std::string &a, const std::string &b);

/** Parse one "key value..." line; false on a malformed line or
 *  value. */
bool parseManifestEntry(const std::string &line,
                        RunManifest &manifest);

/** The manifest as a JSON object (one line, escaped, fixed key
 *  order). */
std::string manifestJson(const RunManifest &manifest);

} // namespace mnoc

#endif // MNOC_COMMON_MANIFEST_HH
