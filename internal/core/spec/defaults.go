package spec

// DefaultImageSource is the metadata of the canonical FlexOS image
// used throughout the evaluation: the formally verified scheduler, the
// memory manager, and four C micro-libraries whose control/data flow
// may be hijacked (so their conservative metadata declares wildcard
// behaviour, narrowed by the [Analysis] ground truth when SH is
// enabled). It doubles as the reference example of the metadata
// language.
const DefaultImageSource = `
# FlexOS default image metadata.

# The formally verified cooperative scheduler (Dafny): others may read
# its memory but never write it, and must enter through the API.
library sched {
  [Memory access] Read(Own,Shared); Write(Own,Shared)
  [Call] alloc::malloc, alloc::free
  [API] thread_add(...); thread_rm(...); yield(...); wait(...); wake(...)
  [Requires] *(Read,Own), *(Write,Shared), *(Call,thread_add), *(Call,thread_rm), *(Call,yield), *(Call,wait), *(Call,wake)
  [Preconditions] thread_add: not_already_added; thread_rm: is_added
  trusted
}

# The memory manager: owns the page table, trusted under MPK.
library alloc {
  [Memory access] Read(Own,Shared); Write(Own,Shared)
  [Call] -
  [API] malloc(...); free(...)
  [Requires] *(Read,Own), *(Write,Shared), *(Call,malloc), *(Call,free)
  trusted
}

# The standard C library: unsafe language, variable-length writes that
# cannot be proven safe statically.
library libc {
  [Memory access] Read(*); Write(*)
  [Call] *
  [API] memcpy(...); memset(...); sem_init(...); sem_up(...); sem_down(...); malloc(...); free(...); listen(...); accept(...); connect(...); recv(...); send(...); recvmmsg(...); sendmmsg(...); close(...)
  [Analysis] calls(sched::wait, sched::wake, alloc::malloc, alloc::free, netstack::listen, netstack::accept, netstack::connect, netstack::recv, netstack::send, netstack::close); writes(Own,Shared); reads(Own,Shared)
}

# The network stack: parses attacker-controlled input.
library netstack {
  [Memory access] Read(*); Write(*)
  [Call] *
  [API] listen(...); accept(...); connect(...); recv(...); send(...); close(...)
  [Analysis] calls(libc::memcpy, libc::sem_init, libc::sem_up, libc::sem_down, alloc::malloc, alloc::free); writes(Own,Shared); reads(Own,Shared)
}

# The application.
library app {
  [Memory access] Read(*); Write(*)
  [Call] *
  [Analysis] calls(libc::memcpy, libc::memset, libc::malloc, libc::free, libc::listen, libc::accept, libc::connect, libc::recv, libc::send, libc::recvmmsg, libc::sendmmsg, libc::close, alloc::malloc, alloc::free); writes(Own,Shared); reads(Own,Shared)
}

# Everything else in the kernel (platform code, drivers, boot).
library rest {
  [Memory access] Read(*); Write(*)
  [Call] *
  [Analysis] calls(libc::memcpy, sched::yield, alloc::malloc, alloc::free); writes(Own,Shared); reads(Own,Shared)
}
`

// DefaultImage parses DefaultImageSource. It panics only if the
// built-in source is corrupted, which the test suite guards.
func DefaultImage() []*Library {
	libs, err := Parse(DefaultImageSource)
	if err != nil {
		panic("spec: built-in image metadata broken: " + err.Error())
	}
	return libs
}
