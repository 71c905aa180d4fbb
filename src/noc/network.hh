/**
 * @file
 * Abstract network model interface and the traffic recorder used to
 * capture communication matrices from simulation.
 */

#ifndef MNOC_NOC_NETWORK_HH
#define MNOC_NOC_NETWORK_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/matrix.hh"
#include "noc/packet.hh"

namespace mnoc::noc {

/**
 * A point-to-point network timing model.  deliver() is stateful: it
 * advances per-channel occupancy so that back-to-back packets on the
 * same channel serialize.
 */
class Network
{
  public:
    virtual ~Network() = default;

    /** Number of network endpoints. */
    virtual int numNodes() const = 0;

    /**
     * Inject @p packet at @p now and return its delivery tick,
     * accounting for serialization and channel contention.
     */
    virtual Tick deliver(const Packet &packet, Tick now) = 0;

    /** Zero-load latency in cycles from @p src to @p dst. */
    virtual int zeroLoadLatency(int src, int dst) const = 0;

    /** Model name for reports. */
    virtual std::string name() const = 0;

    /** Reset all channel-occupancy state. */
    virtual void reset() = 0;
};

/** One (src, dst) traffic entry inside an attribution epoch. */
struct EpochCell
{
    int src = 0;
    int dst = 0;
    std::uint64_t packets = 0;
    std::uint64_t flits = 0;
};

/**
 * Traffic bucketed into fixed message-count windows, in delivery
 * order: epoch e holds messages [e*messagesPerEpoch,
 * (e+1)*messagesPerEpoch).  Cells within an epoch are sorted by
 * (src, dst), so the representation is canonical and two captures of
 * the same run compare byte-identical.
 */
struct EpochTraffic
{
    std::uint64_t messagesPerEpoch = 0;
    std::vector<std::vector<EpochCell>> epochs;

    bool empty() const { return epochs.empty(); }
};

/**
 * Records per-(src, dst) packet and flit counts.  The power models
 * consume the flit matrix; the thread mapper consumes the packet
 * matrix.  With enableEpochs(), traffic is additionally bucketed
 * into message-count windows for the energy-attribution ledger.
 * record() is serial (the event loop owns it), so no locking.
 */
class TrafficRecorder
{
  public:
    explicit TrafficRecorder(int num_nodes)
        : numNodes_(static_cast<std::size_t>(num_nodes)),
          packets_(num_nodes, num_nodes, 0),
          flits_(num_nodes, num_nodes, 0)
    {}

    /** Start bucketing traffic into windows of @p messages_per_epoch
     *  delivered packets (0 disables; the default). */
    void
    enableEpochs(std::uint64_t messages_per_epoch)
    {
        epochs_.messagesPerEpoch = messages_per_epoch;
        std::size_t cells = messages_per_epoch ? numNodes_ * numNodes_ : 0;
        slot_.assign(cells, 0);
        touched_.assign((cells + 63) / 64, 0);
        touchedWords_.assign((touched_.size() + 63) / 64, 0);
    }

    /**
     * Stream sealed epochs into @p sink (e.g. a TraceWriter)
     * instead of accumulating them in memory, so a capture's peak
     * memory no longer grows with run length.  Cells arrive sorted by
     * (src, dst), exactly as takeEpochs() would have stored them.
     * takeEpochs() then returns only messagesPerEpoch and whatever
     * the sink has not consumed (nothing), so callers that persist
     * through the sink skip saveTrace()'s epoch block.
     */
    void
    setEpochSink(std::function<void(std::vector<EpochCell> &&)> sink)
    {
        epochSink_ = std::move(sink);
    }

    /** Record one delivered packet. */
    void
    record(const Packet &packet)
    {
        packets_(packet.src, packet.dst) += 1;
        flits_(packet.src, packet.dst) +=
            static_cast<std::uint64_t>(packet.flits);
        if (epochs_.messagesPerEpoch == 0)
            return;
        std::size_t index =
            static_cast<std::size_t>(packet.src) * numNodes_ +
            static_cast<std::size_t>(packet.dst);
        std::uint64_t bit = 1ULL << (index & 63);
        std::uint64_t &word = touched_[index >> 6];
        if (!(word & bit)) {
            word |= bit;
            touchedWords_[index >> 12] |= 1ULL << ((index >> 6) & 63);
            slot_[index] = static_cast<std::uint32_t>(current_.size());
            current_.push_back(EpochCell{packet.src, packet.dst, 0, 0});
        }
        EpochCell &cell = current_[slot_[index]];
        cell.packets += 1;
        cell.flits += static_cast<std::uint64_t>(packet.flits);
        if (++messages_in_epoch_ == epochs_.messagesPerEpoch)
            sealEpoch();
    }

    /** Finish the partial epoch (if any) and hand over the captured
     *  windows; the recorder's epoch state is left empty. */
    EpochTraffic
    takeEpochs()
    {
        if (messages_in_epoch_ > 0)
            sealEpoch();
        EpochTraffic out = std::move(epochs_);
        epochs_ = EpochTraffic{};
        epochs_.messagesPerEpoch = out.messagesPerEpoch;
        return out;
    }

    const CountMatrix &packets() const { return packets_; }
    const CountMatrix &flits() const { return flits_; }

    /** Total packets recorded. */
    std::uint64_t totalPackets() const { return packets_.total(); }
    /** Total flits recorded. */
    std::uint64_t totalFlits() const { return flits_.total(); }

  private:
    void
    sealEpoch()
    {
        // Walking the touched bitmap in index order, through its
        // nonzero words only, emits the cells sorted by (src, dst) and
        // clears it for the next epoch.
        std::vector<EpochCell> cells;
        cells.reserve(current_.size());
        for (std::size_t si = 0; si < touchedWords_.size(); ++si) {
            std::uint64_t words = touchedWords_[si];
            touchedWords_[si] = 0;
            for (; words; words &= words - 1) {
                std::size_t wi = si * 64 +
                    static_cast<std::size_t>(__builtin_ctzll(words));
                std::uint64_t word = touched_[wi];
                touched_[wi] = 0;
                for (; word; word &= word - 1) {
                    std::size_t index = wi * 64 +
                        static_cast<std::size_t>(__builtin_ctzll(word));
                    cells.push_back(current_[slot_[index]]);
                }
            }
        }
        if (epochSink_)
            epochSink_(std::move(cells));
        else
            epochs_.epochs.push_back(std::move(cells));
        current_.clear();
        messages_in_epoch_ = 0;
    }

    std::size_t numNodes_;
    CountMatrix packets_;
    CountMatrix flits_;
    EpochTraffic epochs_;
    std::function<void(std::vector<EpochCell> &&)> epochSink_;
    /** The open epoch's cells, in first-touch order. */
    std::vector<EpochCell> current_;
    /** Per (src, dst), row-major: the cell's index in current_, valid
     *  where its touched_ bit is set. */
    std::vector<std::uint32_t> slot_;
    /** One bit per (src, dst), row-major: touched this epoch. */
    std::vector<std::uint64_t> touched_;
    /** One bit per word of touched_: that word is nonzero. */
    std::vector<std::uint64_t> touchedWords_;
    std::uint64_t messages_in_epoch_ = 0;
};

} // namespace mnoc::noc

#endif // MNOC_NOC_NETWORK_HH
