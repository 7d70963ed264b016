/**
 * @file
 * Raw shared-memory channel — Table 2's "Shared Memory" row.
 *
 * Fast (a memory write) and asynchronous, but NOT append-only: any writer
 * with the mapping can corrupt or erase previously-written messages before
 * the verifier reads them. The corruptOldestPending() test hook
 * demonstrates exactly that weakness; the AppendWrite channels reject the
 * equivalent operation.
 */

#ifndef HQ_IPC_SHM_CHANNEL_H
#define HQ_IPC_SHM_CHANNEL_H

#include "ipc/ring_channel.h"

namespace hq {

class ShmChannel : public RingChannel
{
  public:
    explicit ShmChannel(std::size_t capacity)
        : RingChannel(capacity, {"Shared Memory", /*appendOnly=*/false,
                                 /*asyncValidation=*/true, "Mem. Write"})
    {
    }

    /**
     * Model a compromised writer overwriting an already-sent message in
     * place (the integrity failure that motivates AppendWrite).
     * @return true when an unread message was corrupted.
     */
    bool
    corruptOldestPending(const Message &forged)
    {
        return _ring.overwritePending(0, forged);
    }
};

} // namespace hq

#endif // HQ_IPC_SHM_CHANNEL_H
