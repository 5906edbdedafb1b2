//! R4 journal-file guard: this fixture is named `shard.rs`, the
//! journal-replay owner, so in-sweep sends are the pattern itself and
//! must not fire.

fn drain(nodes: &mut [Node]) {
    nodes.par_iter_mut().for_each(|node| {
        ctx.send(node.peer, Message::Degree(node.degree));
        node.events.emit(RunEvent::RoundStart);
    });
}
