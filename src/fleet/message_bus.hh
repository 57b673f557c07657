/**
 * @file
 * A minimal typed publish/subscribe bus: the fleet arbiter's telemetry
 * seam.
 *
 * The arbiter (fleet/fleet_arbiter.hh) publishes one GrantEvent per
 * request granted to the memory system and one ShedEvent per request
 * dropped; stat sinks subscribe without the arbiter knowing who, if
 * anyone, listens. The arbiter's own tiers do not use the bus: tenants
 * call their root directly. Each message type has its own Channel of
 * subscribers, a plain member of the bus; the arbiter takes pointers
 * to both at construction, so publishing to a channel nobody
 * subscribed to is one branch on the grant path.
 *
 * Everything is single-threaded by design: one FleetArbiter and its
 * tenants live on one simulation thread (shard parallelism happens at
 * the SweepExecutor level, one fleet per task), so no locking.
 */

#ifndef PVA_FLEET_MESSAGE_BUS_HH
#define PVA_FLEET_MESSAGE_BUS_HH

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace pva::fleet
{

/** @name Fleet telemetry messages (fleet/fleet_arbiter.hh) @{ */

/** One request granted to the memory system. */
struct GrantEvent
{
    unsigned tenant;
    unsigned stream; ///< Tenant-local stream index
    std::uint64_t waited; ///< Queueing delay at grant (cycles)
};

/** One request shed. */
struct ShedEvent
{
    unsigned tenant;
    unsigned stream;  ///< Tenant-local stream index
    bool deadline;    ///< true = deadline shed, false = overload shed
};

/** @} */

/** Subscribers of one message type, invoked in subscription order. */
template <typename Message>
class Channel
{
  public:
    using Handler = std::function<void(const Message &)>;

    void subscribe(Handler handler)
    {
        handlers.push_back(std::move(handler));
    }

    void publish(const Message &msg) const
    {
        for (const Handler &h : handlers)
            h(msg);
    }

    bool hasSubscribers() const { return !handlers.empty(); }

  private:
    std::vector<Handler> handlers;
};

/** One channel per telemetry message type. */
class MessageBus
{
  public:
    template <typename Message>
    Channel<Message> &channel()
    {
        if constexpr (std::is_same_v<Message, GrantEvent>) {
            return grants;
        } else {
            static_assert(std::is_same_v<Message, ShedEvent>,
                          "not a fleet telemetry message");
            return sheds;
        }
    }

    template <typename Message>
    void subscribe(std::function<void(const Message &)> handler)
    {
        channel<Message>().subscribe(std::move(handler));
    }

    MessageBus() = default;
    MessageBus(const MessageBus &) = delete;
    MessageBus &operator=(const MessageBus &) = delete;

  private:
    Channel<GrantEvent> grants;
    Channel<ShedEvent> sheds;
};

} // namespace pva::fleet

#endif // PVA_FLEET_MESSAGE_BUS_HH
