//! Line framing and socket tuning shared by the daemon and [`crate::Client`].
//!
//! Every protocol line leaves in **one** `write` on a socket with Nagle's
//! algorithm off. Both halves matter: `writeln!` on a bare stream issues
//! two writes (the line, then `\n`), and with Nagle on the kernel holds the
//! second segment until the peer ACKs the first — which a request/response
//! peer delays until its next request or its ~40 ms delayed-ACK timer. A
//! single write fixes the split line; `TCP_NODELAY` fixes the next line
//! (an `accepted` is typically followed by its `result` before the peer
//! has ACKed anything).

use std::io::Write;
use std::net::TcpStream;

/// Writes `line` plus its `\n` terminator in a single `write_all`, then
/// flushes.
pub(crate) fn write_line<W: Write>(writer: &mut W, line: &str) -> std::io::Result<()> {
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    writer.write_all(framed.as_bytes())?;
    writer.flush()
}

/// Applies the socket options every protocol connection uses
/// (`TCP_NODELAY`), on both the daemon's accepted streams and
/// [`crate::Client::connect`]'s.
pub(crate) fn tune_stream(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)
}
