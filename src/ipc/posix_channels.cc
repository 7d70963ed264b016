#include "ipc/posix_channels.h"

#include <fcntl.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/log.h"
#include "faultinject/fault.h"
#include "telemetry/telemetry.h"

namespace hq {

namespace {

HQ_TELEMETRY_HANDLE(sendRetriesCounter, Counter, "ipc.send_retries")

/** Unique suffix so parallel tests do not collide on queue names. */
std::string
uniqueQueueName()
{
    static std::atomic<std::uint64_t> counter{0};
    return "/hq-mq-" + std::to_string(::getpid()) + "-" +
           std::to_string(counter.fetch_add(1));
}

/**
 * Bounded retry-with-backoff for transient transport failures (full
 * datagram buffers, injected EAGAINs). The first attempts just yield;
 * later ones sleep exponentially up to 512us. 256 attempts give the
 * verifier ~100ms to drain before the sender fails closed — a live
 * verifier drains a full buffer in well under that, so only a dead or
 * wedged enforcement channel ever exhausts the budget.
 */
constexpr int kMaxSendAttempts = 256;

void
sendBackoff(int attempt)
{
    if (telemetry::enabled())
        sendRetriesCounter().inc();
    if (attempt < 16) {
        std::this_thread::yield();
        return;
    }
    const int shift = std::min(attempt - 16, 9); // 1us .. 512us
    std::this_thread::sleep_for(std::chrono::microseconds(1u << shift));
}

Status
retryBudgetExhausted(const char *transport)
{
    return Status::error(StatusCode::Unavailable,
                         std::string(transport) +
                             " send: retry budget exhausted (fail closed)");
}

} // namespace

// ---------------------------------------------------------------------
// PosixChannel
// ---------------------------------------------------------------------

PeekResult
PosixChannel::tryPeekSpan(RecvSpan &out)
{
    std::size_t buffered = _buffered.load(std::memory_order_relaxed);
    if (buffered == 0) {
        _head = 0;
        while (buffered < kRecvBufferSlots && readOne(_buffer[buffered]))
            ++buffered;
        _buffered.store(buffered, std::memory_order_relaxed);
    }
    out = RecvSpan{};
    out.seg[0] = {_buffer + _head, buffered};
    return buffered != 0 ? PeekResult::Ready : PeekResult::Empty;
}

void
PosixChannel::consumeSlots(std::size_t count)
{
    _head += count;
    _buffered.store(_buffered.load(std::memory_order_relaxed) - count,
                    std::memory_order_relaxed);
}

std::size_t
PosixChannel::pending() const
{
    return _buffered.load(std::memory_order_relaxed) + kernelPending();
}

// ---------------------------------------------------------------------
// MqChannel
// ---------------------------------------------------------------------

MqChannel::MqChannel(std::size_t capacity)
    : _queue_name(uniqueQueueName()),
      _traits{"POSIX Message Queue", /*appendOnly=*/true,
              /*asyncValidation=*/false, "System Call"}
{
    mq_attr attr{};
    // Linux caps mq_maxmsg at /proc/sys/fs/mqueue/msg_max (default 10);
    // clamp rather than fail so the channel works without root tuning.
    attr.mq_maxmsg = static_cast<long>(std::min<std::size_t>(capacity, 10));
    attr.mq_msgsize = sizeof(Message);

    _send_queue = mq_open(_queue_name.c_str(), O_CREAT | O_WRONLY, 0600,
                          &attr);
    if (_send_queue == static_cast<mqd_t>(-1)) {
        logWarn("mq_open(send) failed: ", std::strerror(errno));
        return;
    }
    _recv_queue = mq_open(_queue_name.c_str(), O_RDONLY | O_NONBLOCK);
    if (_recv_queue == static_cast<mqd_t>(-1)) {
        logWarn("mq_open(recv) failed: ", std::strerror(errno));
        mq_close(_send_queue);
        _send_queue = static_cast<mqd_t>(-1);
    }
}

MqChannel::~MqChannel()
{
    if (_send_queue != static_cast<mqd_t>(-1))
        mq_close(_send_queue);
    if (_recv_queue != static_cast<mqd_t>(-1))
        mq_close(_recv_queue);
    if (!_queue_name.empty())
        mq_unlink(_queue_name.c_str());
}

bool
MqChannel::supported()
{
    MqChannel probe(8);
    return probe._send_queue != static_cast<mqd_t>(-1);
}

Status
MqChannel::sendImpl(const Message &message)
{
    if (_send_queue == static_cast<mqd_t>(-1))
        return Status::error(StatusCode::Unavailable, "mq not open");
    for (int attempt = 0; attempt < kMaxSendAttempts; ++attempt) {
        if (faultinject::fire(faultinject::Site::TransportError)) {
            sendBackoff(attempt);
            continue; // simulated transient mq_send failure
        }
        const int rc = mq_send(_send_queue,
                               reinterpret_cast<const char *>(&message),
                               sizeof(message), 0);
        if (rc == 0)
            return Status::ok();
        if (errno == EINTR || errno == EAGAIN) {
            sendBackoff(attempt);
            continue;
        }
        return Status::error(StatusCode::Internal,
                             std::string("mq_send: ") +
                                 std::strerror(errno));
    }
    return retryBudgetExhausted("mq");
}

bool
MqChannel::readOne(Message &out)
{
    if (_recv_queue == static_cast<mqd_t>(-1))
        return false;
    const ssize_t n = mq_receive(_recv_queue,
                                 reinterpret_cast<char *>(&out),
                                 sizeof(out), nullptr);
    return n == sizeof(out);
}

std::size_t
MqChannel::kernelPending() const
{
    if (_recv_queue == static_cast<mqd_t>(-1))
        return 0;
    mq_attr attr{};
    if (mq_getattr(_recv_queue, &attr) != 0)
        return 0;
    return static_cast<std::size_t>(attr.mq_curmsgs);
}

// ---------------------------------------------------------------------
// PipeChannel
// ---------------------------------------------------------------------

PipeChannel::PipeChannel()
    : _traits{"Named Pipe", /*appendOnly=*/true, /*asyncValidation=*/false,
              "System Call"}
{
    int fds[2];
    if (::pipe(fds) != 0) {
        logWarn("pipe failed: ", std::strerror(errno));
        return;
    }
    _read_fd = fds[0];
    _write_fd = fds[1];
    // Receive side is polled by the verifier, so it must not block.
    const int flags = fcntl(_read_fd, F_GETFL, 0);
    fcntl(_read_fd, F_SETFL, flags | O_NONBLOCK);
}

PipeChannel::~PipeChannel()
{
    if (_read_fd >= 0)
        ::close(_read_fd);
    if (_write_fd >= 0)
        ::close(_write_fd);
}

Status
PipeChannel::sendImpl(const Message &message)
{
    if (_write_fd < 0)
        return Status::error(StatusCode::Unavailable, "pipe not open");
    for (int attempt = 0; attempt < kMaxSendAttempts; ++attempt) {
        if (faultinject::fire(faultinject::Site::TransportError)) {
            sendBackoff(attempt);
            continue; // simulated short write / transient error
        }
        // sizeof(Message) < PIPE_BUF, so the write is atomic.
        const ssize_t n = ::write(_write_fd, &message, sizeof(message));
        if (n == sizeof(message))
            return Status::ok();
        if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
            sendBackoff(attempt);
            continue;
        }
        return Status::error(StatusCode::Internal,
                             std::string("pipe write: ") +
                                 std::strerror(errno));
    }
    return retryBudgetExhausted("pipe");
}

bool
PipeChannel::readOne(Message &out)
{
    if (_read_fd < 0)
        return false;
    // Atomic 32-byte writes mean a successful read returns a whole
    // message; short reads only occur on an empty pipe (EAGAIN).
    const ssize_t n = ::read(_read_fd, &out, sizeof(out));
    return n == sizeof(out);
}

std::size_t
PipeChannel::kernelPending() const
{
    if (_read_fd < 0)
        return 0;
    int bytes = 0;
    if (ioctl(_read_fd, FIONREAD, &bytes) != 0)
        return 0;
    return static_cast<std::size_t>(bytes) / sizeof(Message);
}

// ---------------------------------------------------------------------
// SocketChannel
// ---------------------------------------------------------------------

SocketChannel::SocketChannel()
    : _traits{"Socket", /*appendOnly=*/true, /*asyncValidation=*/false,
              "System Call"}
{
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_DGRAM, 0, fds) != 0) {
        logWarn("socketpair failed: ", std::strerror(errno));
        return;
    }
    _send_fd = fds[0];
    _recv_fd = fds[1];
    const int flags = fcntl(_recv_fd, F_GETFL, 0);
    fcntl(_recv_fd, F_SETFL, flags | O_NONBLOCK);
}

SocketChannel::~SocketChannel()
{
    if (_send_fd >= 0)
        ::close(_send_fd);
    if (_recv_fd >= 0)
        ::close(_recv_fd);
}

Status
SocketChannel::sendImpl(const Message &message)
{
    if (_send_fd < 0)
        return Status::error(StatusCode::Unavailable, "socket not open");
    for (int attempt = 0; attempt < kMaxSendAttempts; ++attempt) {
        if (faultinject::fire(faultinject::Site::TransportError)) {
            sendBackoff(attempt);
            continue; // simulated EAGAIN
        }
        const ssize_t n = ::send(_send_fd, &message, sizeof(message), 0);
        if (n == sizeof(message)) {
            _in_flight.fetch_add(1, std::memory_order_relaxed);
            return Status::ok();
        }
        if (n < 0 && (errno == EINTR || errno == ENOBUFS ||
                      errno == EAGAIN)) {
            // Datagram buffer full: wait for the verifier to drain.
            sendBackoff(attempt);
            continue;
        }
        return Status::error(StatusCode::Internal,
                             std::string("socket send: ") +
                                 std::strerror(errno));
    }
    return retryBudgetExhausted("socket");
}

bool
SocketChannel::readOne(Message &out)
{
    if (_recv_fd < 0)
        return false;
    if (::recv(_recv_fd, &out, sizeof(out), 0) != sizeof(out))
        return false;
    _in_flight.fetch_sub(1, std::memory_order_relaxed);
    return true;
}

std::size_t
SocketChannel::kernelPending() const
{
    // FIONREAD on a datagram socket reports only the next datagram's
    // size, so count what is in flight instead.
    return _in_flight.load(std::memory_order_relaxed);
}

} // namespace hq
