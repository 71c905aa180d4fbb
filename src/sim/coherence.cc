#include "sim/coherence.hh"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "common/log.hh"

namespace mnoc::sim {

using noc::PacketClass;
using noc::Tick;

CoherenceController::CoherenceController(int num_cores,
                                         const MemoryParams &params,
                                         noc::Network &network,
                                         noc::TrafficRecorder &recorder)
    : numCores_(num_cores), params_(params), network_(network),
      recorder_(recorder), directory_(num_cores)
{
    fatalIf(num_cores < 1, "need at least one core");
    homeMap_.resize(num_cores);
    for (int i = 0; i < num_cores; ++i)
        homeMap_[i] = i;
    fatalIf(network.numNodes() != num_cores,
            "network size must match core count");
    l1_.reserve(num_cores);
    l2_.reserve(num_cores);
    for (int i = 0; i < num_cores; ++i) {
        l1_.emplace_back(params_.l1);
        l2_.emplace_back(params_.l2);
    }
}

std::optional<LineState>
CoherenceController::cacheState(int core, std::uint64_t line) const
{
    return l2_[core].peek(line);
}

void
CoherenceController::setHomeMap(std::vector<int> thread_to_core)
{
    fatalIf(static_cast<int>(thread_to_core.size()) != numCores_,
            "home map must cover every thread");
    homeMap_ = std::move(thread_to_core);
}

int
CoherenceController::homeCoreOf(std::uint64_t addr) const
{
    return homeMap_[homeOf(addr, numCores_)];
}

Tick
CoherenceController::send(int src, int dst, PacketClass cls, Tick when)
{
    if (src == dst)
        return when; // local, no network traversal
    noc::Packet pkt = noc::makePacket(src, dst, cls);
    Tick arrival = network_.deliver(pkt, when);
    recorder_.record(pkt);
    ++stats_.packetsSent;
    stats_.packetLatencySum += arrival - when;
    return arrival;
}

noc::Tick
CoherenceController::access(int core, const MemOp &op, Tick now)
{
    panicIf(core < 0 || core >= numCores_, "core index out of range");
    ++stats_.accesses;
    std::uint64_t line = lineOf(op.addr);

    Tick t = now + params_.l1Cycles;
    auto l1_state = l1_[core].lookup(line);
    if (l1_state) {
        if (!op.write || *l1_state == LineState::Modified) {
            ++stats_.l1Hits;
            return t;
        }
        // Write hit on a clean/owned copy: needs exclusivity.
        return handleUpgrade(core, line, t);
    }

    t += params_.l2Cycles;
    auto l2_state = l2_[core].lookup(line);
    if (l2_state) {
        // L1 refill from L2 (inclusive hierarchy; silent L1 victim).
        l1_[core].insert(line, *l2_state);
        if (!op.write || *l2_state == LineState::Modified) {
            ++stats_.l2Hits;
            return t + params_.fillCycles;
        }
        return handleUpgrade(core, line, t);
    }

    return handleMiss(core, line, op.write, t);
}

Tick
CoherenceController::handleMiss(int core, std::uint64_t line, bool write,
                                Tick now)
{
    int home = homeCoreOf(line << lineShift);
    DirEntry e = directory_.entry(line);
    SharerSpan sharers = e.sharers();
    panicIf(sharers.contains(core),
            "missing core is still registered as a sharer");

    // Request travels to the home directory.
    Tick t_dir = send(core, home, PacketClass::Control, now) +
                 params_.dirCycles;

    Tick data_at = 0;
    Tick acks_at = t_dir;

    if (write) {
        ++stats_.getx;
        switch (e.state()) {
          case DirState::Invalid:
            ++stats_.memoryFetches;
            data_at = send(home, core, PacketClass::Data,
                           t_dir + params_.memCycles);
            break;
          case DirState::Shared: {
            // Invalidate every sharer; data comes from memory.
            acks_at = std::max(
                acks_at, invalidateSharers(sharers.members(), -1,
                                           home, core, line, t_dir));
            ++stats_.memoryFetches;
            data_at = send(home, core, PacketClass::Data,
                           t_dir + params_.memCycles);
            break;
          }
          case DirState::Owned:
          case DirState::Modified: {
            int owner = e.owner();
            // Forward-invalidate the owner, who supplies the data.
            Tick fwd_at = send(home, owner, PacketClass::Control, t_dir);
            invalidateAt(owner, line);
            ++stats_.invalidations;
            ++stats_.cacheToCache;
            data_at = send(owner, core, PacketClass::Data,
                           fwd_at + params_.l2Cycles);
            // Plain sharers (Owned state) are invalidated too.
            acks_at = std::max(
                acks_at, invalidateSharers(sharers.members(), owner,
                                           home, core, line, t_dir));
            break;
          }
        }
        e.setState(DirState::Modified);
        e.setOwner(core);
        sharers.clear();
        sharers.add(core);
        fill(core, line, LineState::Modified, std::max(data_at, acks_at));
    } else {
        ++stats_.gets;
        switch (e.state()) {
          case DirState::Invalid:
            ++stats_.memoryFetches;
            data_at = send(home, core, PacketClass::Data,
                           t_dir + params_.memCycles);
            e.setState(DirState::Shared);
            break;
          case DirState::Shared:
            ++stats_.memoryFetches;
            data_at = send(home, core, PacketClass::Data,
                           t_dir + params_.memCycles);
            break;
          case DirState::Owned:
          case DirState::Modified: {
            int owner = e.owner();
            Tick fwd_at = send(home, owner, PacketClass::Control, t_dir);
            ++stats_.cacheToCache;
            data_at = send(owner, core, PacketClass::Data,
                           fwd_at + params_.l2Cycles);
            if (e.state() == DirState::Modified) {
                e.setState(DirState::Owned);
                bool ok = l2_[owner].setState(line, LineState::Owned);
                panicIf(!ok, "owner lost its line");
                l1_[owner].setState(line, LineState::Owned);
            }
            break;
          }
        }
        sharers.add(core);
        fill(core, line, LineState::Shared, data_at);
    }

    directory_.checkInvariants(line);
    return std::max(data_at, acks_at) + params_.fillCycles;
}

Tick
CoherenceController::handleUpgrade(int core, std::uint64_t line,
                                   Tick now)
{
    ++stats_.upgrades;
    int home = homeCoreOf(line << lineShift);
    DirEntry e = directory_.entry(line);
    SharerSpan sharers = e.sharers();
    panicIf(!sharers.contains(core),
            "upgrading core is not a registered sharer");
    // Directory-Modified with this core as owner happens when sharer
    // evictions collapsed an Owned line: the cache still holds Owned and
    // must still request exclusivity, but nobody needs invalidating.
    panicIf(e.state() == DirState::Invalid,
            "upgrade on a directory-Invalid line");
    panicIf(e.state() == DirState::Modified && e.owner() != core,
            "upgrade on a line Modified elsewhere");

    Tick t_dir = send(core, home, PacketClass::Control, now) +
                 params_.dirCycles;
    Tick done = t_dir;

    // Invalidate every other cached copy (including a foreign owner;
    // the upgrader's copy is current because owners forward on reads).
    done = std::max(done, invalidateSharers(sharers.members(), core,
                                            home, core, line, t_dir));
    // Home acknowledges the new ownership.
    done = std::max(done, send(home, core, PacketClass::Control, t_dir));

    e.setState(DirState::Modified);
    e.setOwner(core);
    sharers.clear();
    sharers.add(core);

    bool ok = l2_[core].setState(line, LineState::Modified);
    panicIf(!ok, "upgrading core lost its L2 line");
    l1_[core].setState(line, LineState::Modified);

    directory_.checkInvariants(line);
    return done;
}

void
CoherenceController::fill(int core, std::uint64_t line, LineState state,
                          Tick now)
{
    auto victim = l2_[core].insert(line, state);
    if (victim) {
        l1_[core].invalidate(victim->line); // inclusion
        evictFromDirectory(core, victim->line, victim->state, now);
    }
    l1_[core].insert(line, state); // L1 victims are silent (still in L2)
}

void
CoherenceController::evictFromDirectory(int core, std::uint64_t line,
                                        LineState state, Tick now)
{
    // Lookup only: the victim is cached, so its line exists, and no
    // table grows under the caller's view of the missing line.
    DirEntry e = directory_.at(line);
    SharerSpan sharers = e.sharers();
    panicIf(!sharers.contains(core),
            "evicting core is not a registered sharer");
    sharers.remove(core);

    if (isDirty(state)) {
        panicIf(e.owner() != core, "dirty line evicted by a non-owner");
        // Writeback to the home's memory; does not block the core.
        int home = homeCoreOf(line << lineShift);
        send(core, home, PacketClass::Data, now);
        ++stats_.writebacks;
        e.setOwner(-1);
        e.setState(sharers.empty() ? DirState::Invalid
                                   : DirState::Shared);
    } else {
        if (sharers.empty()) {
            e.setState(DirState::Invalid);
            e.setOwner(-1);
        } else if (e.state() == DirState::Owned &&
                   sharers.count() == 1) {
            // Only the owner remains.
            e.setState(DirState::Modified);
        }
    }
    directory_.checkInvariants(line);
}

void
CoherenceController::invalidateAt(int core, std::uint64_t line)
{
    l1_[core].invalidate(line);
    l2_[core].invalidate(line);
}

Tick
CoherenceController::invalidateSharers(const std::vector<int> &sharers,
                                       int except, int home,
                                       int requester,
                                       std::uint64_t line, Tick when)
{
    std::vector<int> targets;
    for (int s : sharers)
        if (s != except)
            targets.push_back(s);
    if (targets.empty())
        return when;

    Tick acks_at = when;
    if (params_.multicastInvalidations && targets.size() >= 2) {
        // One broadcast-capable packet reaches every sharer; charge
        // the farthest target on the serpentine for timing and power.
        int far = targets.front();
        for (int s : targets)
            if (std::abs(s - home) > std::abs(far - home))
                far = s;
        Tick inv_at = send(home, far, PacketClass::Control, when);
        ++stats_.multicastInvs;
        for (int s : targets) {
            invalidateAt(s, line);
            ++stats_.invalidations;
            acks_at = std::max(
                acks_at,
                send(s, requester, PacketClass::Control, inv_at + 1));
        }
    } else {
        for (int s : targets) {
            Tick inv_at = send(home, s, PacketClass::Control, when);
            invalidateAt(s, line);
            ++stats_.invalidations;
            acks_at = std::max(
                acks_at,
                send(s, requester, PacketClass::Control, inv_at + 1));
        }
    }
    return acks_at;
}

} // namespace mnoc::sim
