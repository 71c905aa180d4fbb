/**
 * @file
 * Serialization of complete mNoC designs.
 *
 * A finished design has two consumers (paper Section 3.2.2): the
 * fabrication side needs the per-node splitter fractions of every
 * waveguide, and the runtime side needs each source's table of drive
 * constants (mode of each destination, drive power per mode), which
 * software programs into the QD LED current drivers.  saveDesign()
 * writes both in one line-oriented text file; loadDesign() restores a
 * design that evaluates identically.
 */

#ifndef MNOC_CORE_DESIGN_IO_HH
#define MNOC_CORE_DESIGN_IO_HH

#include <optional>
#include <string>
#include <vector>

#include "common/manifest.hh"
#include "core/designer.hh"
#include "core/power_model.hh"

namespace mnoc::core {

/**
 * Write @p design to @p path.  When @p resilience is non-null, the
 * hardening outcome (yield numbers and the degradation path) is
 * appended so downstream consumers can see how the design was hardened
 * and whether it met its yield target.  When @p manifest is non-null,
 * a run-manifest trailer (seed, git SHA, thread count, env knobs) is
 * appended for provenance.
 * @throws FatalError when the file cannot be written.
 */
void saveDesign(const std::string &path, const MnocDesign &design,
                const ResilienceSummary *resilience = nullptr,
                const RunManifest *manifest = nullptr);

/**
 * Read a design written by saveDesign().  The file is read whole in
 * one sized read, so it must be a regular file (not a pipe).
 * @throws FatalError on malformed input, naming "path:line" and the
 *         field.
 */
MnocDesign loadDesign(const std::string &path);

/** A loaded design plus its optional hardening record and the
 *  provenance manifest the producing run embedded, when present. */
struct DesignReport
{
    MnocDesign design;
    std::optional<ResilienceSummary> resilience;
    std::optional<RunManifest> manifest;
};

/**
 * Read a design together with its resilience summary, when present.
 * @throws FatalError on malformed input.
 */
DesignReport loadDesignReport(const std::string &path);

/**
 * The software-visible drive table of one source: for each
 * destination, the minimum mode and the QD LED drive power in watts
 * (the "table of constants" of Section 3.2.2).
 */
struct DriveTableEntry
{
    int dest = 0;
    int mode = 0;
    WattPower drivePower;
};

/** Build source @p source's drive table from @p design. */
std::vector<DriveTableEntry> driveTable(const MnocDesign &design,
                                        int source);

/**
 * Read a thread-to-core mapping file (`mnocpt map` output): @p cores
 * whitespace-separated core ids, the one at position t being thread
 * t's core, over any number of lines.
 * @throws FatalError unless the file lists a permutation of
 *         0..@p cores-1; a bad id is named as "path:line: field
 *         'core'".
 */
std::vector<int> loadMapping(const std::string &path, int cores);

/** The identity mapping: thread t runs on core t. */
std::vector<int> identityMapping(int cores);

} // namespace mnoc::core

#endif // MNOC_CORE_DESIGN_IO_HH
