#include "ipc/xproc_ring.h"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "common/log.h"

namespace hq {

namespace {

/** The lag sidecar starts 64-byte aligned after the ring's slots. */
std::size_t
sidecarOffset(std::size_t capacity)
{
    return (SpscRing::regionBytes(capacity) + 63) & ~std::size_t{63};
}

std::size_t
mapBytes(std::size_t capacity)
{
    return sidecarOffset(capacity) +
           telemetry::LagSidecar::regionBytes(capacity);
}

void *
mapShared(std::size_t bytes)
{
    void *mapping = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                           MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mapping == MAP_FAILED)
        panic(std::string("xproc mmap failed: ") + std::strerror(errno));
    return mapping;
}

} // namespace

XprocChannel::XprocChannel(std::size_t min_capacity)
    : XprocChannel(mapShared(mapBytes(min_capacity)), min_capacity)
{
}

XprocChannel::XprocChannel(void *mapping, std::size_t min_capacity)
    : RingChannel(mapping, min_capacity,
                  {"Cross-process shared ring", /*appendOnly=*/true,
                   /*asyncValidation=*/true, "Mem. Write"}),
      _mapping(mapping), _map_bytes(mapBytes(min_capacity))
{
    // The lag sidecar shares the mapping: the child process stamps
    // enqueue times into it and the parent's verifier reads them, so it
    // must live behind the same fork-shared pages as the message ring.
    installLagSidecar(std::make_unique<telemetry::LagSidecar>(
        static_cast<unsigned char *>(mapping) + sidecarOffset(min_capacity),
        min_capacity, /*initialize=*/true));
}

XprocChannel::~XprocChannel()
{
    ::munmap(_mapping, _map_bytes);
}

} // namespace hq
